package objectswap

// Facade-level tests of the one record a swap leaves behind: the labels a
// failed swap's span carries into /debug/traces, and the rendering of a
// completed swap's SwapEvent in /debug/events.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// getOps decodes the JSON body of an ops endpoint into out.
func getOps(t *testing.T, sys *System, path string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	sys.OpsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d\n%s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s: %v\n%s", path, err, rec.Body.String())
	}
}

// errorSpan returns the one failed span of op in /debug/traces?errors=.
func errorSpan(t *testing.T, sys *System, op string) obs.SpanRecord {
	t.Helper()
	var body struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	getOps(t, sys, "/debug/traces?errors=10", &body)
	var found []obs.SpanRecord
	for _, s := range body.Spans {
		if s.Op == op {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d failed %s spans in %+v, want 1", len(found), op, body.Spans)
	}
	return found[0]
}

func TestFailedSwapInSpanCarriesLabels(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 1 << 20,
		DeviceName:   "lbl-sys",
		Replicas:     2,
		Transport:    TransportPolicy{MaxAttempts: 1, BreakerThreshold: 1, OpTimeout: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	donors := map[string]*store.Flaky{
		"donor-a": store.NewFlaky(store.NewMem(0), 1),
		"donor-b": store.NewFlaky(store.NewMem(0), 1),
	}
	for name, fl := range donors {
		if err := sys.AttachDevice(name, fl); err != nil {
			t.Fatal(err)
		}
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)
	out, err := sys.SwapOut(clusters[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Replicas) != 2 {
		t.Fatalf("replica set = %v, want 2 donors", out.Replicas)
	}

	// Every replica fails the fetch.
	for _, fl := range donors {
		fl.FailNext(store.OpGet, -1)
	}
	if _, err := sys.SwapIn(clusters[0]); err == nil {
		t.Fatal("swap-in succeeded with every replica failing")
	}

	s := errorSpan(t, sys, "swap_in")
	if s.Outcome != "error" || s.Error == "" {
		t.Fatalf("span outcome = %q, error = %q", s.Outcome, s.Error)
	}
	if !strings.HasPrefix(s.Trace, "lbl-sys-") || s.Trace == out.Trace {
		t.Fatalf("span trace = %q (swap-out trace %q), want the swap-in's own", s.Trace, out.Trace)
	}
	if s.Cluster != uint32(clusters[0]) || s.Key != out.Key {
		t.Fatalf("span cluster/key = %d/%q, want %d/%q", s.Cluster, s.Key, clusters[0], out.Key)
	}
	if strings.Join(s.Replicas, ",") != strings.Join(out.Replicas, ",") {
		t.Fatalf("span replicas = %v, want %v", s.Replicas, out.Replicas)
	}
	if s.Device != "" {
		t.Fatalf("span device = %q, want none: no replica served", s.Device)
	}
}

func TestFailedSwapOutSpanCarriesLabels(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 1 << 20,
		DeviceName:   "lbl-sys",
		Transport:    TransportPolicy{MaxAttempts: 1, BreakerThreshold: 1, OpTimeout: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	donor := store.NewFlaky(store.NewMem(0), 1)
	donor.FailNext(store.OpPut, -1)
	if err := sys.AttachDevice("donor", donor); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)
	if _, err := sys.SwapOut(clusters[0]); err == nil {
		t.Fatal("swap-out succeeded with its only donor rejecting the Put")
	}

	s := errorSpan(t, sys, "swap_out")
	want := fmt.Sprintf("lbl-sys-swapcluster-%d-gen1", clusters[0])
	if s.Cluster != uint32(clusters[0]) || s.Key != want {
		t.Fatalf("span cluster/key = %d/%q, want %d/%q", s.Cluster, s.Key, clusters[0], want)
	}
	if s.Trace == "" || s.Outcome != "error" {
		t.Fatalf("span trace/outcome = %q/%q", s.Trace, s.Outcome)
	}
}

func TestDebugEventsRenderSwapEvent(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20, DeviceName: "evt-sys"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("donor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)
	ev, err := sys.SwapOut(clusters[0])
	if err != nil {
		t.Fatal(err)
	}

	var body struct {
		Events []obs.EventRecord `json:"events"`
	}
	getOps(t, sys, "/debug/events", &body)
	var details []string
	for _, e := range body.Events {
		if e.Topic == "swap.out" {
			details = append(details, e.Detail)
		}
	}
	want := fmt.Sprintf("%+v", ev)
	if len(want) <= 160 {
		t.Fatalf("rendering %q fits in 160 bytes; the test wants truncation", want)
	}
	want = want[:160] + "..."
	if len(details) != 1 || details[0] != want {
		t.Fatalf("swap.out details = %q, want [%q]", details, want)
	}
}
