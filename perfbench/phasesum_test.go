package main

import (
	"errors"
	"testing"
	"time"
)

// TestPhaseSums is the guard against the per-layer view drifting from the
// end-to-end number: on a short traced run of every workload, the phases of
// each SwapEvent must add up to its Duration, the reported phases must
// account for the span time, and on cycle the spans must account for the
// benchmark's own wall time of each SwapOut, within the tolerances stated in
// trace.go.
func TestPhaseSums(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			tr := newTracer()
			inst, err := w.setup(1, tr)
			if err != nil {
				t.Fatal(err)
			}
			s0 := capture(inst)
			tr.window(true)
			run := inst.run(stopRule{maxOps: 512, deadline: time.Now().Add(30 * time.Second)})
			tr.window(false)
			view := phaseView(s0, capture(inst))
			if err := finalCheck(inst); err != nil {
				t.Error(err)
			}
			inst.close()
			if run.mismatch != nil {
				t.Error(run.mismatch)
			}

			tr.mu.Lock()
			defer tr.mu.Unlock()
			if tr.phaseN == 0 {
				t.Fatal("no swap events were checked")
			}
			if name == "cycle" && tr.wallN == 0 {
				t.Fatal("no swap-out was timed against its span")
			}
			if err := errors.Join(tr.phaseSumErr(), phaseViewErr(view), tr.wallErr()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d events, %d outliers, largest gap %v, gaps %.3f%% of swap time; "+
				"unreported phase time %.3f%% (swap_in), %.3f%% (swap_out); "+
				"%.1f%% of %d swap-outs' wall time outside their spans",
				tr.phaseN, tr.phaseBad, tr.phaseGap, 100*tr.gapShare(),
				100*view["swap_in"], 100*view["swap_out"], 100*tr.wallGapShare(), tr.wallN)
		})
	}
}
