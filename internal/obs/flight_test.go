package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecorderRetainsMostRecentSpans(t *testing.T) {
	r := NewRecorder(4, 4)
	for i := 1; i <= 10; i++ {
		r.RecordSpan(SpanRecord{Op: "swap_out", DurationNS: int64(i)})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Most recent first: durations 10, 9, 8, 7.
	for i, want := range []int64{10, 9, 8, 7} {
		if spans[i].DurationNS != want {
			t.Fatalf("spans[%d].DurationNS = %d, want %d", i, spans[i].DurationNS, want)
		}
	}
	if spans[0].Seq <= spans[1].Seq {
		t.Fatalf("seq not monotonic: %d then %d", spans[0].Seq, spans[1].Seq)
	}
	total, _ := r.Totals()
	if total != 10 {
		t.Fatalf("spans_total = %d, want 10", total)
	}
}

func TestRecorderBoundedUnderConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perWorker = 500
		spanCap   = 64
		eventCap  = 32
	)
	r := NewRecorder(spanCap, eventCap)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.RecordSpan(SpanRecord{
					Op:         fmt.Sprintf("op-%d", w),
					DurationNS: int64(i),
					Phases:     []PhaseRecord{{Name: "encode", DurationNS: 1}},
				})
				r.RecordEvent(EventRecord{Topic: "swap.out"})
			}
		}(w)
	}
	wg.Wait()

	if got := len(r.Spans()); got != spanCap {
		t.Fatalf("retained %d spans, want exactly %d", got, spanCap)
	}
	if got := len(r.Events()); got != eventCap {
		t.Fatalf("retained %d events, want exactly %d", got, eventCap)
	}
	spansTotal, eventsTotal := r.Totals()
	if want := uint64(producers * perWorker); spansTotal != want || eventsTotal != want {
		t.Fatalf("totals = (%d, %d), want (%d, %d)", spansTotal, eventsTotal, want, want)
	}
	// Seq strictly decreasing in most-recent-first order.
	spans := r.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq >= spans[i-1].Seq {
			t.Fatalf("seq out of order at %d: %d then %d", i, spans[i-1].Seq, spans[i].Seq)
		}
	}
}

func TestRecorderQueries(t *testing.T) {
	r := NewRecorder(8, 8)
	r.RecordSpan(SpanRecord{Op: "swap_out", Outcome: "ok", DurationNS: 50})
	r.RecordSpan(SpanRecord{Op: "swap_out", Outcome: "error", Error: "ship failed", DurationNS: 900})
	r.RecordSpan(SpanRecord{Op: "swap_in", Outcome: "ok", DurationNS: 200})
	r.RecordSpan(SpanRecord{Op: "swap_in", Outcome: "error", Error: "fetch failed", DurationNS: 10})

	slowest := r.Slowest(2)
	if len(slowest) != 2 || slowest[0].DurationNS != 900 || slowest[1].DurationNS != 200 {
		t.Fatalf("Slowest(2) = %+v", slowest)
	}
	errs := r.RecentErrors(0)
	if len(errs) != 2 || errs[0].Error != "fetch failed" || errs[1].Error != "ship failed" {
		t.Fatalf("RecentErrors = %+v", errs)
	}
	if got := r.RecentErrors(1); len(got) != 1 || got[0].Error != "fetch failed" {
		t.Fatalf("RecentErrors(1) = %+v", got)
	}
}

func TestRecorderJSONRoundTrip(t *testing.T) {
	r := NewRecorder(4, 4)
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	r.RecordSpan(SpanRecord{
		Op: "swap_out", Trace: "dev1-00000001", Device: "neighbor", Cluster: 3,
		Key: "dev1-swapcluster-3-gen1", Outcome: "ok", Start: start, DurationNS: 1234,
		Phases: []PhaseRecord{{Name: "encode", DurationNS: 400, Bytes: 2048}},
	})
	r.RecordEvent(EventRecord{BusSeq: 7, Topic: "swap.out", At: start, Detail: "cluster 3"})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, buf.String())
	}
	if len(dump.Spans) != 1 || len(dump.Events) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	got := dump.Spans[0]
	want := r.Spans()[0]
	if got.Trace != want.Trace || got.Device != want.Device || got.Cluster != want.Cluster ||
		got.Key != want.Key || !got.Start.Equal(want.Start) || got.DurationNS != want.DurationNS ||
		len(got.Phases) != 1 || got.Phases[0] != want.Phases[0] {
		t.Fatalf("span round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if dump.Events[0].Topic != "swap.out" || dump.Events[0].BusSeq != 7 {
		t.Fatalf("event round-trip mismatch: %+v", dump.Events[0])
	}
	// Two identical dumps must be byte-identical (deterministic export).
	var buf2 bytes.Buffer
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export not deterministic across identical dumps")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordSpan(SpanRecord{Op: "x"})
	r.RecordEvent(EventRecord{Topic: "y"})
	if r.Spans() != nil || r.Events() != nil || len(r.Slowest(3)) != 0 || len(r.RecentErrors(3)) != 0 {
		t.Fatal("nil recorder returned data")
	}
}

func TestSpanRecordsIntoRecorder(t *testing.T) {
	clock := NewVirtualClock(time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC))
	reg := NewRegistry(clock)
	tr := NewTracer(reg, "objectswap_swap")
	rec := NewRecorder(8, 8)
	tr.SetRecorder(rec)

	sp := tr.Start("swap_out")
	sp.Phase("encode")
	clock.Advance(3 * time.Millisecond)
	sp.AddBytes(1024)
	sp.Phase("ship")
	clock.Advance(7 * time.Millisecond)
	sp.End(Labels{Trace: "dev9-00000001", Cluster: 5, Device: "neighbor", Key: "k1",
		Replicas: []string{"neighbor"}})

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Op != "swap_out" || s.Trace != "dev9-00000001" || s.Cluster != 5 ||
		s.Device != "neighbor" || s.Key != "k1" || s.Outcome != "ok" ||
		len(s.Replicas) != 1 || s.Replicas[0] != "neighbor" {
		t.Fatalf("span labels wrong: %+v", s)
	}
	if s.DurationNS != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("duration = %d", s.DurationNS)
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "encode" || s.Phases[0].Bytes != 1024 ||
		s.Phases[0].DurationNS != (3*time.Millisecond).Nanoseconds() {
		t.Fatalf("phases wrong: %+v", s.Phases)
	}

	// A failed span is retained with outcome "error" but does not count as a
	// completed span in the metrics.
	before, _ := reg.Value("objectswap_swap_spans_total", "swap_out")
	sp2 := tr.Start("swap_out")
	sp2.Phase("encode")
	clock.Advance(time.Millisecond)
	sp2.Fail(Labels{Cluster: 6, Key: "k2"}, errors.New("device gone"))
	after, _ := reg.Value("objectswap_swap_spans_total", "swap_out")
	if after != before {
		t.Fatalf("failed span counted as completed: %v -> %v", before, after)
	}
	errsRetained := rec.RecentErrors(0)
	if len(errsRetained) != 1 || errsRetained[0].Error != "device gone" ||
		errsRetained[0].Cluster != 6 || errsRetained[0].Key != "k2" {
		t.Fatalf("RecentErrors = %+v", errsRetained)
	}
}

func TestRecorderRendersPayloadOnRead(t *testing.T) {
	type payload struct {
		Cluster int
		Note    string
	}
	r := NewRecorder(4, 4)
	long := payload{Cluster: 3, Note: string(bytes.Repeat([]byte("x"), 200))}
	r.RecordEvent(EventRecord{Topic: "swap.out", Payload: payload{Cluster: 3, Note: "ok"}})
	r.RecordEvent(EventRecord{Topic: "swap.out", Payload: long})
	r.RecordEvent(EventRecord{Topic: "link.up"})

	events := r.Events()
	if events[0].Detail != "" {
		t.Fatalf("nil payload rendered %q", events[0].Detail)
	}
	if want := fmt.Sprintf("%+v", long)[:detailMax] + "..."; events[1].Detail != want {
		t.Fatalf("long payload Detail = %q, want %q", events[1].Detail, want)
	}
	if events[2].Detail != "{Cluster:3 Note:ok}" {
		t.Fatalf("Detail = %q", events[2].Detail)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Events[2].Detail != "{Cluster:3 Note:ok}" || dump.Events[2].Payload != nil {
		t.Fatalf("exported event = %+v", dump.Events[2])
	}
}
