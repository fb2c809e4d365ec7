package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"objectswap"
	"objectswap/internal/core"
	"objectswap/internal/event"
	"objectswap/internal/fault"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/obs"
)

// The per-layer view is checked against the end-to-end number three ways.
//
// Phase sums, per SwapEvent: its Phases must add up to its Duration. A span
// closes each phase when it opens the next and closes the last one when it
// ends, so the only time outside the phases is between opening the span and
// its first phase: a few statements, plus any collector assist or
// descheduling there. The check therefore guards the span's bookkeeping and
// flags events the host interrupted; it cannot see a phase that stops being
// timed, whose time folds into the phase before it. An event whose phases
// miss more than phaseSumAbs plus phaseSumRel of its Duration is an outlier;
// at most phaseSumOutliers of all events may be outliers, and the gaps of all
// events together must stay within phaseSumShare of their total duration.
//
// Phase view, per operation: the time of the phases the per-layer metrics
// report (swapInPhases, swapOutPhases) must add up to the time of the spans,
// objectswap_swap_seconds, within phaseViewShare. This fails when the program
// times a phase the metrics do not report, or renames one.
//
// Wall time, on cycle: the benchmark times each explicit SwapOut itself, and
// the time by which these wall times exceed the Durations of the SwapEvents
// returned must stay within wallGapShare of the wall time, over all of them. This fails when work moves out of the span,
// so that the phases no longer account for the stall the application sees.
// The time outside the span is argument handling and the trace ID before it,
// and after it folding the span into the histograms and the flight recorder,
// telemetry, logging and publishing the event, with the tracer's own
// handler: about 13% of a cycle swap-out, and about 20% under the race
// detector.
const (
	phaseSumAbs      = time.Millisecond
	phaseSumRel      = 0.01
	phaseSumOutliers = 0.001
	phaseSumShare    = 0.01
	phaseViewShare   = 0.02
	wallGapShare     = 0.3
)

// The phases of a swap-in and a swap-out, as the program names them; each
// has a per-layer metric.
var (
	swapInPhases  = []string{"reserve", "fetch", "decode", "evict", "install"}
	swapOutPhases = []string{"reserve", "snapshot", "negotiate", "encode", "ship", "commit"}
)

// refaultWindow is how many operations after its eviction a victim counts as
// refaulted when it is swapped back in.
const refaultWindow = 16

// tracer is the benchmark-side tracing of the per-layer run. It subscribes
// to the bus, counts the requests each HTTP donor serves, and keeps the
// operation index the workloads advance. A nil tracer does nothing, so
// untraced runs pay nothing for it.
type tracer struct {
	ops    atomic.Int64
	active atomic.Bool

	mu         sync.Mutex
	swapOuts   int64
	formats    map[string]int64
	replicas   int64
	shortfall  int64
	evicted    int64
	victims    map[core.ClusterID]int64 // evictor victim -> operation index
	refaulted  int64
	requests   map[string]int64
	serverTime time.Duration
	phaseN     int64
	phaseBad   int64
	phaseGap   time.Duration // largest |Duration - sum(Phases)|
	gapSum     time.Duration
	durSum     time.Duration
	firstBad   string
	wallN      int64         // explicit SwapOuts timed by the benchmark
	wallSum    time.Duration // their wall time
	wallGap    time.Duration // their wall time outside the span
}

func newTracer() *tracer {
	return &tracer{
		formats:  map[string]int64{},
		victims:  map[core.ClusterID]int64{},
		requests: map[string]int64{},
	}
}

// attach subscribes to the swap events of sys.
func (tr *tracer) attach(sys *objectswap.System) {
	if tr == nil {
		return
	}
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		if e, ok := ev.Payload.(core.SwapEvent); ok {
			tr.swapOut(e)
		}
	})
	sys.Bus().Subscribe(event.TopicSwapIn, func(ev event.Event) {
		if e, ok := ev.Payload.(core.SwapEvent); ok {
			tr.swapIn(e)
		}
	})
}

func (tr *tracer) noteOp() {
	if tr != nil {
		tr.ops.Add(1)
	}
}

// window opens or closes the timed phase; counts outside it are not kept,
// but every event's phase sum is checked.
func (tr *tracer) window(open bool) { tr.active.Store(open) }

func (tr *tracer) swapOut(e core.SwapEvent) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.checkPhases("swap_out", e)
	if !tr.active.Load() {
		return
	}
	tr.swapOuts++
	tr.formats[e.Format]++
	tr.replicas += int64(len(e.Replicas))
	tr.shortfall += int64(e.Shortfall)
	if e.Cause == core.CauseEvictor {
		tr.evicted++
		tr.victims[e.Cluster] = tr.ops.Load()
	}
}

func (tr *tracer) swapIn(e core.SwapEvent) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.checkPhases("swap_in", e)
	if at, ok := tr.victims[e.Cluster]; ok {
		delete(tr.victims, e.Cluster)
		if tr.ops.Load()-at <= refaultWindow {
			tr.refaulted++
		}
	}
}

// checkPhases runs the phase-sum check on one event: its phases must add up
// to its duration.
func (tr *tracer) checkPhases(op string, e core.SwapEvent) {
	var sum time.Duration
	for _, p := range e.Phases {
		sum += p.Duration
	}
	gap := e.Duration - sum
	if gap < 0 {
		gap = -gap
	}
	tr.phaseN++
	tr.gapSum += gap
	tr.durSum += e.Duration
	if gap > tr.phaseGap {
		tr.phaseGap = gap
	}
	if gap > phaseSumAbs+time.Duration(phaseSumRel*float64(e.Duration)) {
		tr.phaseBad++
		if tr.firstBad == "" {
			tr.firstBad = fmt.Sprintf("%s of cluster %d: phases %v sum to %v, duration %v",
				op, e.Cluster, e.Phases, sum, e.Duration)
		}
	}
}

func (tr *tracer) gapShare() float64 {
	return ratio(float64(tr.gapSum), float64(tr.durSum))
}

// swapOutWall notes the benchmark's wall time for one explicit SwapOut that
// returned e.
func (tr *tracer) swapOutWall(wall time.Duration, e core.SwapEvent) {
	if tr == nil || !tr.active.Load() {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.wallN++
	tr.wallSum += wall
	tr.wallGap += wall - e.Duration
}

func (tr *tracer) wallGapShare() float64 {
	return ratio(float64(tr.wallGap), float64(tr.wallSum))
}

// phaseSumErr reports a failed phase-sum check. Caller holds tr.mu.
func (tr *tracer) phaseSumErr() error {
	if float64(tr.phaseBad) > phaseSumOutliers*float64(tr.phaseN) {
		return fmt.Errorf("%d of %d swap events fail the phase-sum check; first: %s",
			tr.phaseBad, tr.phaseN, tr.firstBad)
	}
	if share := tr.gapShare(); share > phaseSumShare {
		return fmt.Errorf("phases miss %.2f%% of the swap time over %d events (limit %.0f%%)",
			100*share, tr.phaseN, 100*phaseSumShare)
	}
	return nil
}

// wallErr reports a failed wall-time check. Caller holds tr.mu.
func (tr *tracer) wallErr() error {
	if share := tr.wallGapShare(); share > wallGapShare {
		return fmt.Errorf("%.1f%% of the wall time of %d explicit swap-outs is outside their spans (limit %.0f%%)",
			100*share, tr.wallN, 100*wallGapShare)
	}
	return nil
}

// phaseView is, per operation, the share of the spans' time between a and b
// that the reported phases do not account for.
func phaseView(a, b snap) map[string]float64 {
	view := map[string]float64{}
	for op, phases := range map[string][]string{"swap_in": swapInPhases, "swap_out": swapOutPhases} {
		_, s1 := b.hist("objectswap_swap_seconds", "op="+op)
		_, s0 := a.hist("objectswap_swap_seconds", "op="+op)
		var reported float64
		for _, ph := range phases {
			_, p1 := b.hist("objectswap_swap_phase_seconds", "op="+op, "phase="+ph)
			_, p0 := a.hist("objectswap_swap_phase_seconds", "op="+op, "phase="+ph)
			reported += p1 - p0
		}
		gap := (s1 - s0) - reported
		if gap < 0 {
			gap = -gap
		}
		view[op] = ratio(gap, s1-s0)
	}
	return view
}

func phaseViewErr(view map[string]float64) error {
	for _, op := range []string{"swap_in", "swap_out"} {
		if share := view[op]; share > phaseViewShare {
			return fmt.Errorf("the reported %s phases miss %.2f%% of the span time (limit %.0f%%)",
				op, 100*share, 100*phaseViewShare)
		}
	}
	return nil
}

// wrapHandler counts and times the requests a donor serves, by kind. It
// wraps the server side, so the client the runtime talks to is unchanged.
func (tr *tracer) wrapHandler(h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if !tr.active.Load() {
			return
		}
		tr.mu.Lock()
		tr.requests[requestKind(r)]++
		tr.serverTime += d
		tr.mu.Unlock()
	})
}

func requestKind(r *http.Request) string {
	switch {
	case r.URL.Path == "/stats":
		return "stats"
	case r.URL.Path == "/batch":
		return "batch"
	case strings.HasPrefix(r.URL.Path, "/clusters/") && r.Method == http.MethodPut:
		return "put"
	case strings.HasPrefix(r.URL.Path, "/clusters/") && r.Method == http.MethodGet:
		return "get"
	case strings.HasPrefix(r.URL.Path, "/clusters/") && r.Method == http.MethodDelete:
		return "drop"
	}
	return "other"
}

// snap is every counter the per-layer metrics are differences of.
type snap struct {
	fams  []obs.FamilySnapshot
	heap  heap.Stats
	fault fault.Snapshot
	trans objectswap.TransportSnapshot
	link  link.Stats
	air   time.Duration
	rt    map[string]float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func capture(inst instance) snap {
	sys := inst.system()
	s := snap{
		fams:  sys.Metrics().Gather(),
		heap:  sys.Heap().StatsSnapshot(),
		fault: sys.Runtime().FaultEngine().Snapshot(),
		trans: sys.TransportSnapshot(),
		rt:    map[string]float64{},
	}
	lks, clock := inst.links()
	for _, l := range lks {
		st := l.TrafficStats()
		s.link.Ops += st.Ops
		s.link.BytesSent += st.BytesSent
		s.link.BytesReceived += st.BytesReceived
	}
	if clock != nil {
		s.air = clock.Elapsed()
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, smp := range samples {
		switch smp.Value.Kind() {
		case metrics.KindUint64:
			s.rt[smp.Name] = float64(smp.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[smp.Name] = smp.Value.Float64()
		}
	}
	return s
}

// series visits every point of family name whose labels include all of
// match ("label=value" pairs).
func (s snap) series(name string, match []string, visit func(obs.Point)) {
	for _, f := range s.fams {
		if f.Name != name {
			continue
		}
	points:
		for _, p := range f.Points {
			for _, m := range match {
				k, v, _ := strings.Cut(m, "=")
				found := false
				for _, l := range p.Labels {
					if l.Name == k && l.Value == v {
						found = true
					}
				}
				if !found {
					continue points
				}
			}
			visit(p)
		}
	}
}

// value sums the matching counter or gauge series.
func (s snap) value(name string, match ...string) float64 {
	var v float64
	s.series(name, match, func(p obs.Point) { v += p.Value })
	return v
}

// hist sums the count and total of the matching histogram series.
func (s snap) hist(name string, match ...string) (uint64, float64) {
	var n uint64
	var sum float64
	s.series(name, match, func(p obs.Point) {
		if p.Hist != nil {
			n += p.Hist.Count
			sum += p.Hist.Sum
		}
	})
	return n, sum
}

// fidelity lists the counts tracing cannot change: link transfers, swap-ins
// and shipments per wire format.
func fidelity(a, b snap) map[string]float64 {
	d := map[string]float64{
		"link_transfers": float64(b.link.Ops - a.link.Ops),
		"swap_ins":       b.value("objectswap_swap_spans_total", "op=swap_in") - a.value("objectswap_swap_spans_total", "op=swap_in"),
	}
	for _, f := range []string{"xml", "binary", "binary+flate", "delta"} {
		n1, _ := b.hist("objectswap_wire_seconds", "format="+f, "op=encode")
		n0, _ := a.hist("objectswap_wire_seconds", "format="+f, "op=encode")
		d["shipments_"+f] = float64(n1 - n0)
	}
	return d
}

// perLayer runs the workload untraced for half of dur, then traced for the
// same number of operations on a fresh build from the same seed, and reports
// the per-layer metrics of the traced pass with the tracing overhead.
func perLayer(w workload, seed int64, dur time.Duration) (result, map[string]any, error) {
	plain, err := w.setup(seed, nil)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	p0 := capture(plain)
	tu := plain.run(stopRule{deadline: time.Now().Add(dur / 2)})
	p1 := capture(plain)
	chkU := finalCheck(plain)
	plain.close()

	tr := newTracer()
	inst, err := w.setup(seed, tr)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced setup: %w", err)
	}
	runtime.GC()
	s0 := capture(inst)
	tr.window(true)
	tt := inst.run(stopRule{maxOps: tu.ops, deadline: time.Now().Add(2 * dur)})
	tr.window(false)
	s1 := capture(inst)
	chk := finalCheck(inst)
	inst.close()

	_, collects, err := residue(w, seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("residue: %w", err)
	}
	correct := chkU == nil && chk == nil && tu.mismatch == nil && tt.mismatch == nil
	reportProblems(tu, chkU)
	reportProblems(tt, chk)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	view := phaseView(s0, s1)
	if err := errors.Join(tr.phaseSumErr(), phaseViewErr(view), tr.wallErr()); err != nil {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	fu, ft := fidelity(p0, p1), fidelity(s0, s1)
	if w.clients == 1 {
		for k, v := range fu {
			if ft[k] != v || tt.ops != tu.ops {
				correct = false
				fmt.Fprintf(os.Stderr, "perfbench: traced run diverged: %s %v untraced vs %v traced over %d/%d ops\n",
					k, v, ft[k], tu.ops, tt.ops)
			}
		}
	}

	m := layerMetrics(tr, tt, s0, s1)
	m["heap.collects_to_reclaim"] = metric{float64(collects), "count"}
	opsU := float64(tu.ops) / tu.elapsed.Seconds()
	opsT := float64(tt.ops) / tt.elapsed.Seconds()
	m["trace.ops_per_s_untraced"] = metric{opsU, "1/s"}
	m["trace.ops_per_s_traced"] = metric{opsT, "1/s"}
	m["trace.overhead_frac"] = metric{1 - opsT/opsU, "ratio"}
	m["check.phase_sum_events"] = metric{float64(tr.phaseN), "count"}
	m["check.phase_sum_max_gap_us"] = metric{float64(tr.phaseGap.Nanoseconds()) / 1e3, "us"}
	m["check.phase_sum_gap_share"] = metric{tr.gapShare(), "ratio"}
	m["check.phase_sum_outliers"] = metric{float64(tr.phaseBad), "count"}
	m["check.phase_view_gap_share"] = metric{max(view["swap_in"], view["swap_out"]), "ratio"}
	m["check.swapout_wall_gap_share"] = metric{tr.wallGapShare(), "ratio"}

	res := result{Correct: correct, Attempted: tt.ops, Failed: tt.failed, Metrics: m}
	record := map[string]any{
		"samples": map[string]int{
			"op_untraced": len(tu.op.us), "op_traced": len(tt.op.us),
			"swapout_traced": len(tt.swap.us), "phase_sum_events": int(tr.phaseN),
			"swapout_wall": int(tr.wallN),
		},
		"phase_view_gap_share":    view,
		"phase_sum_first_outlier": tr.firstBad,
		"fidelity_untraced":       fu,
		"fidelity_traced":         ft,
		"requests":                tr.requests,
		"formats":                 tr.formats,
		"check":                   errString(errors.Join(chkU, chk)),
	}
	return res, record, nil
}

// layerMetrics turns the traced pass into the per-layer metrics.
func layerMetrics(tr *tracer, t *tally, a, b snap) map[string]metric {
	ops := float64(t.ops)
	per := func(x float64) float64 { return ratio(x, ops) }
	d := func(name string, match ...string) float64 { return b.value(name, match...) - a.value(name, match...) }
	// meanUS is the mean of the matching histogram over the window, in µs.
	meanUS := func(name string, match ...string) float64 {
		n1, s1 := b.hist(name, match...)
		n0, s0 := a.hist(name, match...)
		return ratio(s1-s0, float64(n1-n0)) * 1e6
	}
	totalUS := func(name string, match ...string) float64 {
		_, s1 := b.hist(name, match...)
		_, s0 := a.hist(name, match...)
		return (s1 - s0) * 1e6
	}
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	for _, ph := range swapInPhases {
		set("core.swapin_"+ph+"_us", "us", meanUS("objectswap_swap_phase_seconds", "op=swap_in", "phase="+ph))
	}
	for _, ph := range swapOutPhases {
		set("core.swapout_"+ph+"_us", "us", meanUS("objectswap_swap_phase_seconds", "op=swap_out", "phase="+ph))
	}
	swapIns := d("objectswap_swap_spans_total", "op=swap_in")
	swapOuts := d("objectswap_swap_spans_total", "op=swap_out")
	set("core.swapins_per_op", "count", per(swapIns))
	set("core.swapouts_per_op", "count", per(swapOuts))
	set("core.lock_wait_us_per_op", "us", per(totalUS("objectswap_swap_lock_wait_seconds")))
	set("core.evictor_swapouts_per_op", "count", per(float64(tr.evicted)))
	set("core.victim_refault_frac", "ratio", ratio(float64(tr.refaulted), float64(tr.evicted)))
	set("core.failed_frac", "ratio", per(float64(t.failed)))
	set("core.busy_refusals_per_op", "count", per(float64(t.busy)))

	set("heap.collections_per_op", "count", per(float64(b.heap.Collections-a.heap.Collections)))
	set("heap.gc_pause_us_per_op", "us", per(totalUS("objectswap_heap_gc_seconds")))

	set("fault.coalesced_per_fault", "count", ratio(float64(b.fault.CoalescedWaiters-a.fault.CoalescedWaiters), swapIns))
	set("fault.batch_keys_per_round", "count", ratio(float64(b.fault.BatchKeys-a.fault.BatchKeys), float64(b.fault.BatchRounds-a.fault.BatchRounds)))

	encBytes := d("objectswap_wire_bytes_total", "op=encode")
	decBytes := d("objectswap_wire_bytes_total", "op=decode")
	set("wire.bytes_per_swapout", "B", ratio(encBytes, swapOuts))
	set("wire.delta_share", "ratio", ratio(float64(tr.formats["delta"]), float64(tr.swapOuts)))
	set("wire.encode_us_per_kb", "us", ratio(totalUS("objectswap_wire_seconds", "op=encode"), encBytes/1024))
	set("wire.decode_us_per_kb", "us", ratio(totalUS("objectswap_wire_seconds", "op=decode"), decBytes/1024))

	set("link.transfers_per_op", "count", per(float64(b.link.Ops-a.link.Ops)))
	set("link.bytes_per_op", "B", per(float64(b.link.BytesSent+b.link.BytesReceived-a.link.BytesSent-a.link.BytesReceived)))
	set("link.airtime_ms_per_op", "ms", per(float64((b.air-a.air).Microseconds())/1e3))

	var requests int64
	for _, kind := range []string{"put", "get", "batch", "drop", "stats"} {
		set("store."+kind+"_requests_per_op", "count", per(float64(tr.requests[kind])))
		requests += tr.requests[kind]
	}
	set("store.server_us", "us", ratio(float64(tr.serverTime.Nanoseconds())/1e3, float64(requests)))

	set("placement.replicas_per_swapout", "count", ratio(float64(tr.replicas), float64(tr.swapOuts)))
	set("placement.shortfall_total", "count", float64(tr.shortfall))

	set("transport.retries", "count", float64(b.trans.Retries-a.trans.Retries))
	set("transport.breaker_opens", "count", float64(b.trans.BreakerTrips-a.trans.BreakerTrips))
	set("transport.failovers", "count", float64(b.trans.Failovers-a.trans.Failovers))

	set("policy.fired_per_op", "count", per(d("objectswap_policy_fired_total")))
	set("telemetry.thrash_score", "score", b.value("objectswap_thrash_score"))
	set("event.published_per_op", "count", per(d("objectswap_bus_published_total")))

	rt := func(name string) float64 { return b.rt[name] - a.rt[name] }
	set("runtime.alloc_bytes_per_op", "B", per(rt("/gc/heap/allocs:bytes")))
	set("runtime.mallocs_per_op", "count", per(rt("/gc/heap/allocs:objects")))
	set("runtime.gc_cycles_per_op", "count", per(rt("/gc/cycles/total:gc-cycles")))
	set("runtime.gc_cpu_frac", "ratio", ratio(rt("/cpu/classes/gc/total:cpu-seconds"), rt("/cpu/classes/total:cpu-seconds")))
	return m
}

// ratio is n/d, or 0 when d is 0 (a layer the workload does not use).
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
