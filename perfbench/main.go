// Command perfbench is the swap benchmark of objectswap. It drives the public
// objectswap.System API from outside the program through one of three
// closed-loop workloads:
//
//   - cycle: one client swaps out every cluster of a long chain, collects,
//     and walks the chain, so every cluster boundary is a demand fault over
//     a simulated Bluetooth link.
//   - pressure: one client walks Zipf-picked tenants on a heap capped at a
//     third of the footprint, so every miss runs the evictor.
//   - neighborhood: two clients walk and swap out shared tenants against
//     three HTTP donors on loopback with two replicas per cluster.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced for the same operations, and reports
// the per-layer metrics. Every run checks its own output: the payloads read
// back must match the benchmark's model and the runtime's invariants must
// hold. The last line of standard output is one JSON result; the line before
// it records the host, the seed and every timing's sample count.
//
//	bash perfbench/run.sh --workload cycle --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its System; setup_s is the
// median.
const setupRepeats = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cycle, pressure or neighborhood")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var (
		res    result
		record map[string]any
		err    error
	)
	if *trace == 0 {
		res, record, err = endToEnd(w, *seed, dur)
	} else {
		res, record, err = perLayer(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	record["workload"] = *name
	record["seed"] = *seed
	record["seconds"] = *seconds
	record["trace"] = *trace
	record["clients"] = w.clients
	record["host"] = hostInfo()
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd measures one untraced run: setup_s over setupRepeats builds, then
// the closed loop for dur, then the output check.
func endToEnd(w workload, seed int64, dur time.Duration) (result, map[string]any, error) {
	inst, setupS, err := setupMedian(w, seed)
	if err != nil {
		return result{}, nil, err
	}
	runtime.GC() // start the timed phase without the setup's garbage
	cpu0, steal0 := cpuSeconds(), readSteal()
	t := inst.run(stopRule{deadline: time.Now().Add(dur)})
	cpu, steal := cpuSeconds()-cpu0, readSteal().since(steal0)
	chk := finalCheck(inst)
	inst.close()
	perCluster, collects, err := residue(w, seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("residue: %w", err)
	}

	res := result{
		Correct:   chk == nil && t.mismatch == nil,
		Attempted: t.ops,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":                   {median(setupS), "s"},
			"ops_per_s":                 {float64(t.ops) / t.elapsed.Seconds(), "1/s"},
			"op_p50_us":                 {t.op.percentile(t.elapsed, 50), "us"},
			"op_p90_us":                 {t.op.percentile(t.elapsed, 90), "us"},
			"swapout_p50_us":            {t.swap.percentile(t.elapsed, 50), "us"},
			"swapout_p90_us":            {t.swap.percentile(t.elapsed, 90), "us"},
			"residue_bytes_per_cluster": {perCluster, "B"},
		},
	}
	reportProblems(t, chk)
	record := map[string]any{
		"samples": map[string]int{
			"setup_s": len(setupS), "op": len(t.op.us), "swapout": len(t.swap.us),
			"op_windows": len(t.op.windows(t.elapsed)), "swapout_windows": len(t.swap.windows(t.elapsed)),
		},
		"setup_s_all": setupS,
		// The higher tails over the whole timed phase, which are too
		// unsteady on a shared host to bound (see NOTES.md).
		"tail_us": map[string]float64{
			"op_p95": t.op.overall(95), "op_p99": t.op.overall(99),
			"swapout_p95": t.swap.overall(95), "swapout_p99": t.swap.overall(99),
		},
		"elapsed_s":         t.elapsed.Seconds(),
		"cpu_s":             cpu,
		"host_steal_frac":   steal,
		"failed_frac":       ratio(float64(t.failed), float64(t.ops)),
		"refused_busy":      t.busy,
		"failures":          t.errs,
		"airtime_ms_per_op": t.airtimeMSPerOp(),
		"collects_needed":   collects,
		"check":             errString(chk),
	}
	return res, record, nil
}

// setupMedian builds the workload setupRepeats times, keeps the last build
// and returns every build's wall time in seconds.
func setupMedian(w workload, seed int64) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(seed, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// reportProblems explains an incorrect run on standard error.
func reportProblems(t *tally, chk error) {
	if t.mismatch != nil {
		fmt.Fprintf(os.Stderr, "perfbench: wrong data during the timed phase: %v\n", t.mismatch)
	}
	if chk != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", chk)
	}
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostInfo records where and when a result was measured.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealTicks is the host's CPU time counters from /proc/stat: time stolen
// from this machine by its hypervisor, and all time.
type stealTicks struct{ steal, total uint64 }

func readSteal() stealTicks {
	var t stealTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealTicks{}
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// since is the share of all CPU time the hypervisor stole between t0 and t,
// a measure of how much the host's other tenants slowed a run (0 when
// /proc/stat is unreadable).
func (t stealTicks) since(t0 stealTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
