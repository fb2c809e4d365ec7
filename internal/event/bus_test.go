package event

import (
	"sync"
	"testing"
	"time"

	"objectswap/internal/obs"
)

func TestPublishDeliversInSubscriptionOrder(t *testing.T) {
	b := NewBus()
	var order []int
	b.Subscribe("t", func(Event) { order = append(order, 1) })
	b.Subscribe("t", func(Event) { order = append(order, 2) })
	b.Subscribe("t", func(Event) { order = append(order, 3) })
	n := b.Emit("t", nil)
	if n != 3 {
		t.Fatalf("Emit returned %d, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("delivery order = %v", order)
		}
	}
}

func TestPublishPayloadAndTopicIsolation(t *testing.T) {
	b := NewBus()
	var got any
	b.Subscribe("a", func(ev Event) { got = ev.Payload })
	other := 0
	b.Subscribe("b", func(Event) { other++ })
	b.Emit("a", 42)
	if got != 42 {
		t.Fatalf("payload = %v", got)
	}
	if other != 0 {
		t.Fatal("handler on unrelated topic fired")
	}
	if n := b.Emit("missing", nil); n != 0 {
		t.Fatalf("Emit on topic without subscribers = %d", n)
	}
}

func TestCancel(t *testing.T) {
	b := NewBus()
	calls := 0
	sub := b.Subscribe("t", func(Event) { calls++ })
	b.Emit("t", nil)
	sub.Cancel()
	b.Emit("t", nil)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	sub.Cancel() // double-cancel is a no-op
	var nilSub *Subscription
	nilSub.Cancel() // nil-cancel is a no-op
	if b.Subscribers("t") != 0 {
		t.Fatal("subscriber count not zero after cancel")
	}
}

func TestDeliveredCounter(t *testing.T) {
	r := obs.NewRegistry(nil)
	b := NewBus(WithRegistry(r))
	b.Subscribe("t", func(Event) {})
	b.Subscribe("t", func(Event) {})
	b.Emit("t", nil)
	b.Emit("t", nil)
	if v, _ := r.Value("objectswap_bus_delivered_total", "t"); v != 4 {
		t.Fatalf("delivered counter = %v, want 4", v)
	}
	if v, _ := r.Value("objectswap_bus_published_total", "t"); v != 2 {
		t.Fatalf("published counter = %v, want 2", v)
	}
}

func TestPublishAllocatesNothing(t *testing.T) {
	rec := obs.NewRecorder(0, 0)
	b := NewBus(WithRegistry(obs.NewRegistry(nil)), WithFlightRecorder(rec))
	delivered := 0
	b.Subscribe("t", func(Event) { delivered++ })
	b.Subscribe("t", func(Event) { delivered++ })
	var payload any = struct{ Cluster int }{7} // boxed once, as a publisher would
	ev := Event{Topic: "t", Payload: payload}
	b.Publish(ev) // warm the counters' label series
	if allocs := testing.AllocsPerRun(100, func() { b.Publish(ev) }); allocs != 0 {
		t.Fatalf("Publish allocates %v objects per call, want 0", allocs)
	}
	if delivered != 2*102 {
		t.Fatalf("delivered = %d, want %d", delivered, 2*102)
	}
	if got := rec.Events()[0].Detail; got != "{Cluster:7}" {
		t.Fatalf("recorded Detail = %q", got)
	}
}

func TestCancelKeepsSubscriptionOrder(t *testing.T) {
	b := NewBus()
	var order []int
	b.Subscribe("t", func(Event) { order = append(order, 1) })
	mid := b.Subscribe("t", func(Event) { order = append(order, 2) })
	b.Subscribe("t", func(Event) { order = append(order, 3) })
	mid.Cancel()
	b.Subscribe("t", func(Event) { order = append(order, 4) })
	if n := b.Emit("t", nil); n != 3 {
		t.Fatalf("Emit returned %d, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("delivery order = %v, want [1 3 4]", order)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	b := NewBus()
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe(nil) should panic")
		}
	}()
	b.Subscribe("t", nil)
}

func TestHandlerMayPublish(t *testing.T) {
	// Synchronous cascading: a handler publishing on another topic must not
	// deadlock (handlers run outside the bus lock).
	b := NewBus()
	hits := 0
	b.Subscribe("second", func(Event) { hits++ })
	b.Subscribe("first", func(Event) { b.Emit("second", nil) })
	b.Emit("first", nil)
	if hits != 1 {
		t.Fatalf("cascaded delivery = %d, want 1", hits)
	}
}

func TestConcurrentPublishSafe(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	count := 0
	b.Subscribe("t", func(Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Emit("t", j)
			}
		}()
	}
	wg.Wait()
	if count != 1600 {
		t.Fatalf("count = %d, want 1600", count)
	}
}

func TestPanickingSubscriberDoesNotKillPublisher(t *testing.T) {
	r := obs.NewRegistry(nil)
	b := NewBus(WithRegistry(r))
	after := 0
	b.Subscribe("t", func(Event) { panic("subscriber bug") })
	b.Subscribe("t", func(Event) { after++ })

	n := b.Emit("t", nil) // must not panic out of Publish
	if n != 2 {
		t.Fatalf("Emit returned %d, want 2", n)
	}
	if after != 1 {
		t.Fatal("handler after the panicking one did not run")
	}
	if v, ok := r.Value("objectswap_bus_subscriber_panics_total"); !ok || v != 1 {
		t.Fatalf("panic counter = %v %v", v, ok)
	}
	if v, _ := r.Value("objectswap_bus_published_total", "t"); v != 1 {
		t.Fatalf("published counter = %v", v)
	}
	if v, _ := r.Value("objectswap_bus_delivered_total", "t"); v != 2 {
		t.Fatalf("delivered counter = %v", v)
	}
}

func TestEnvelopeSeqAndTimestamp(t *testing.T) {
	clk := obs.NewVirtualClock(time.Unix(500, 0))
	b := NewBus(WithClock(clk))
	var events []Event
	b.Subscribe("a", func(ev Event) { events = append(events, ev) })
	b.Subscribe("b", func(ev Event) { events = append(events, ev) })

	b.Emit("a", nil)
	clk.Advance(2 * time.Second)
	b.Emit("b", nil)
	b.Emit("a", nil)

	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	// Seq is bus-wide monotonic across topics.
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d Seq = %d", i, ev.Seq)
		}
	}
	if !events[0].At.Equal(time.Unix(500, 0)) {
		t.Fatalf("first At = %v", events[0].At)
	}
	if !events[1].At.Equal(time.Unix(502, 0)) || !events[2].At.Equal(time.Unix(502, 0)) {
		t.Fatalf("later At = %v, %v", events[1].At, events[2].At)
	}
}

func TestStringSummary(t *testing.T) {
	b := NewBus()
	b.Subscribe("x", func(Event) {})
	if got := b.String(); got != "event.Bus{topics:1}" {
		t.Fatalf("String = %q", got)
	}
}

func TestSubscribeAndCancelDuringPublish(t *testing.T) {
	r := obs.NewRegistry(nil)
	b := NewBus(WithRegistry(r))
	var mu sync.Mutex
	steady := 0
	b.Subscribe("t", func(Event) {
		mu.Lock()
		steady++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b.Emit("t", j)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b.Subscribe("t", func(Event) {}).Cancel()
			}
		}()
	}
	wg.Wait()
	if steady != 800 {
		t.Fatalf("steady subscriber saw %d events, want 800", steady)
	}
	if n := b.Subscribers("t"); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	if v, _ := r.Value("objectswap_bus_published_total", "t"); v != 800 {
		t.Fatalf("published counter = %v, want 800", v)
	}
}
