package main

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"objectswap"
	"objectswap/internal/core"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/link"
)

// workload builds fresh instances of one benchmark workload. setup derives
// every input from seed; a non-nil tracer is attached for the per-layer run.
// clients is the workload's fixed number of closed-loop clients.
type workload struct {
	clients int
	setup   func(seed int64, tr *tracer) (instance, error)
}

var workloads = map[string]workload{
	"cycle":        {clients: 1, setup: newCycle},
	"pressure":     {clients: pressureClients, setup: newPressure},
	"neighborhood": {clients: hoodClients, setup: newNeighborhood},
}

// instance is one built workload: a System holding the workload's object
// graph, the benchmark's model of every payload, and the closed loop.
type instance interface {
	system() *objectswap.System
	// run drives the closed loop until stop says so.
	run(stop stopRule) *tally
	// walkAll reads every payload back and compares it with the model.
	walkAll() error
	// clusters lists every cluster the workload allocated.
	clusters() []objectswap.ClusterID
	// links lists the simulated radio links (nil when donors are on HTTP).
	links() ([]*link.Link, *link.VirtualClock)
	close()
}

// stopRule ends a closed loop at a deadline or after maxOps operations,
// whichever comes first (a zero field does not apply).
type stopRule struct {
	deadline time.Time
	maxOps   int64
}

func (s stopRule) done(ops int64) bool {
	if s.maxOps > 0 && ops >= s.maxOps {
		return true
	}
	return !s.deadline.IsZero() && !time.Now().Before(s.deadline)
}

// tally is what one closed loop measured.
type tally struct {
	ops     int64            // attempted operations
	failed  int64            // operations that returned an error or were refused
	busy    int64            // of failed: refused with ErrClusterBusy
	op      series           // every counted operation
	swap    series           // swap-outs
	errs    map[string]int64 // failed operations by error, digits elided
	elapsed time.Duration
	airtime time.Duration // simulated radio time during the timed phase
	// mismatch is the first payload read back that differed from the model;
	// it makes the run incorrect, not merely slow.
	mismatch error
}

func (t *tally) airtimeMSPerOp() float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.airtime.Microseconds()) / 1e3 / float64(t.ops)
}

// fail counts one failed operation, separating data mismatches (a wrong
// result) from errors and refusals (a failed operation).
func (t *tally) fail(err error) {
	var mm *mismatchError
	if errors.As(err, &mm) {
		if t.mismatch == nil {
			t.mismatch = err
		}
		return
	}
	t.failed++
	if errors.Is(err, core.ErrClusterBusy) {
		t.busy++
	}
	if t.errs == nil {
		t.errs = map[string]int64{}
	}
	key := digits.ReplaceAllString(err.Error(), "N")
	if _, ok := t.errs[key]; ok || len(t.errs) < maxErrorKinds {
		t.errs[key]++
	}
}

var digits = regexp.MustCompile(`[0-9]+`)

// maxErrorKinds bounds how many distinct failure messages a tally keeps.
const maxErrorKinds = 16

// merge folds another client's tally into t.
func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.busy += o.busy
	t.op.merge(o.op)
	t.swap.merge(o.swap)
	for k, n := range o.errs {
		if t.errs == nil {
			t.errs = map[string]int64{}
		}
		t.errs[k] += n
	}
	if t.mismatch == nil {
		t.mismatch = o.mismatch
	}
}

type mismatchError struct{ what string }

func (e *mismatchError) Error() string { return "payload mismatch: " + e.what }

// nodeClass is the one application class: a byte payload and a link to the
// next node.
func nodeClass() *heap.Class {
	return heap.NewClass("PerfNode",
		heap.FieldDef{Name: "payload", Kind: heap.KindBytes},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
}

func randPayload(rng *rand.Rand, n int) heap.Value {
	b := make([]byte, n)
	rng.Read(b)
	return heap.Bytes(b)
}

// tenants is a set of independent single-cluster lists, each under its own
// root, with the model of every payload.
type tenants struct {
	sys   *objectswap.System
	ids   []objectswap.ClusterID
	roots []string
	model [][]heap.Value
	// app serializes what reads or writes the runtime's one invocation
	// frame, the GC roots of in-flight object accesses: Field and SetField
	// push onto it and SwapOut scans it. Concurrent callers race on it and
	// leave objects pinned (see NOTES.md). SwapIn stays outside the lock,
	// so faults still run concurrently. app also guards the model.
	app sync.Mutex
}

func buildTenants(sys *objectswap.System, rng *rand.Rand, n, perTenant, payloadLen int) (*tenants, error) {
	cls := sys.MustRegisterClass(nodeClass())
	ts := &tenants{sys: sys}
	for t := 0; t < n; t++ {
		cluster := sys.NewCluster()
		root := fmt.Sprintf("tenant-%d", t)
		payloads := make([]heap.Value, perTenant)
		var prev *heap.Object
		for i := range payloads {
			o, err := sys.NewObject(cls, cluster)
			if err != nil {
				return nil, err
			}
			payloads[i] = randPayload(rng, payloadLen)
			if err := sys.SetField(o.RefTo(), "payload", payloads[i]); err != nil {
				return nil, err
			}
			if prev == nil {
				err = sys.SetRoot(root, o.RefTo())
			} else {
				err = sys.SetField(prev.RefTo(), "next", o.RefTo())
			}
			if err != nil {
				return nil, err
			}
			prev = o
		}
		ts.ids = append(ts.ids, cluster)
		ts.roots = append(ts.roots, root)
		ts.model = append(ts.model, payloads)
	}
	return ts, nil
}

// locked runs fn under the application lock and returns how long fn took,
// leaving out the wait for the lock: the wait is an artifact of the lock the
// benchmark must take, and the lock's cost shows in ops_per_s.
func (ts *tenants) locked(fn func() error) (time.Duration, error) {
	ts.app.Lock()
	defer ts.app.Unlock()
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// walk reads every payload of tenant i through the runtime (faulting the
// tenant in when it is swapped out) and compares it with the model. When
// write >= 0 it then overwrites that object's payload with v. It returns the
// walk's time under the application lock.
func (ts *tenants) walk(i, write int, v heap.Value) (time.Duration, error) {
	return ts.locked(func() error {
		cur, err := ts.sys.MustRoot(ts.roots[i])
		if err != nil {
			return err
		}
		want := ts.model[i]
		for j := range want {
			if j > 0 {
				if cur, err = ts.sys.Field(cur, "next"); err != nil {
					return err
				}
			}
			got, err := ts.sys.Field(cur, "payload")
			if err != nil {
				return err
			}
			if !got.Equal(want[j]) {
				return &mismatchError{fmt.Sprintf("tenant %d object %d", i, j)}
			}
			if j == write {
				if err := ts.sys.SetField(cur, "payload", v); err != nil {
					return err
				}
				want[j] = v
			}
		}
		return nil
	})
}

func (ts *tenants) walkAll() error {
	for i := range ts.ids {
		if _, err := ts.walk(i, -1, heap.Value{}); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	return nil
}

// opKind is what one closed-loop step did.
type opKind int

const (
	opNone    opKind = iota // a no-op, not counted as an operation
	opWalk                  // a tenant walk
	opSwapOut               // an explicit SwapOut
)

// client is one closed-loop caller with its own seeded random stream.
type client struct {
	rng  *rand.Rand
	pick *zipfPicker
}

// runClients runs n concurrent closed-loop clients over a Zipf-skewed set of
// tenants until stop. Each operation reports its kind and how long it took.
// Client c's stream is derived from seed alone, so one client replays
// exactly.
func runClients(n, tenants int, zipfS float64, seed int64, stop stopRule, tr *tracer,
	op func(c *client) (opKind, time.Duration, error)) *tally {
	var (
		ops     atomic.Int64
		wg      sync.WaitGroup
		tallies = make([]*tally, n)
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := &tally{}
		tallies[i] = t
		rng := rand.New(rand.NewSource(seed*64 + int64(i) + 1))
		c := &client{rng: rng, pick: newZipfPicker(rng, zipfS, tenants)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.done(ops.Load()) {
				kind, took, err := op(c)
				if kind == opNone {
					continue
				}
				at := time.Since(start)
				t.op.addAt(at, took)
				if kind == opSwapOut {
					t.swap.addAt(at, took)
				}
				t.ops++
				ops.Add(1)
				tr.noteOp()
				if err != nil {
					t.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	total := &tally{elapsed: time.Since(start)}
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// zipfPicker draws tenant indexes with Zipf skew s over a seeded
// permutation, so which tenants are hot depends on the seed.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(rng *rand.Rand, s float64, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rng, s, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }

// collectRounds bounds the collections after a full swap-out; the facade's
// nursery grace makes the first ones reclaim nothing.
const collectRounds = 8

// swapOutAll swaps out every cluster of inst and collects collectRounds
// times. It returns the heap bytes still held, which are the replacement
// objects and proxies left behind, and how many collections it took until
// the heap stopped shrinking. It lifts the heap cap first: an explicit
// SwapOut on a heap filled to its cap fails to allocate the replacement
// object (see NOTES.md).
func swapOutAll(inst instance) (used int64, collects int, err error) {
	sys := inst.system()
	sys.Heap().SetCapacity(0)
	for _, id := range inst.clusters() {
		if _, err := sys.SwapOut(id); err != nil && !errors.Is(err, core.ErrClusterSwapped) {
			return 0, 0, fmt.Errorf("swap out cluster %d: %w", id, err)
		}
	}
	used = sys.Heap().Used()
	for i := 1; i <= collectRounds; i++ {
		sys.Collect()
		if u := sys.Heap().Used(); u < used {
			used, collects = u, i
		}
	}
	return used, collects, nil
}

// finalCheck is the output check after the timed phase: every cluster is
// swapped out once more, then every payload is read back and compared with
// the model, and the runtime's invariants must hold. Any error makes the run
// incorrect.
func finalCheck(inst instance) error {
	if _, _, err := swapOutAll(inst); err != nil {
		return err
	}
	if err := inst.walkAll(); err != nil {
		return err
	}
	if errs := inst.system().Runtime().Manager().CheckInvariants(); len(errs) > 0 {
		return fmt.Errorf("invariants: %w", errors.Join(errs...))
	}
	return nil
}

// residue measures, on a fresh build from seed, the heap bytes per cluster
// that stay behind once every cluster is swapped out and collection stops
// reclaiming: the paper's proxy and replacement-object cost. A fresh build
// makes it exact from run to run; on a worked instance the storage keys held
// by replacement objects grow with the number of swaps done.
func residue(w workload, seed int64) (perCluster float64, collects int, err error) {
	inst, err := w.setup(seed, nil)
	if err != nil {
		return 0, 0, err
	}
	defer inst.close()
	used, collects, err := swapOutAll(inst)
	return float64(used) / float64(len(inst.clusters())), collects, err
}

// runtimeSwapOuts collects the swap-outs the runtime runs on its own
// (evictor and policy actions), timed by the runtime's span and reported on
// SwapEvent.
type runtimeSwapOuts struct {
	mu    sync.Mutex
	start time.Time
	s     series
}

func subscribeSwapOuts(sys *objectswap.System) *runtimeSwapOuts {
	r := &runtimeSwapOuts{start: time.Now()}
	sys.Bus().Subscribe(event.TopicSwapOut, func(ev event.Event) {
		if e, ok := ev.Payload.(core.SwapEvent); ok && e.Cause != core.CauseExplicit {
			r.mu.Lock()
			r.s.addAt(time.Since(r.start), e.Duration)
			r.mu.Unlock()
		}
	})
	return r
}

// take returns what was collected since the last take and starts afresh.
func (r *runtimeSwapOuts) take() series {
	r.mu.Lock()
	defer r.mu.Unlock()
	taken := r.s
	r.start, r.s = time.Now(), series{}
	return taken
}
