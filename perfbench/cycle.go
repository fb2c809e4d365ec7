package main

import (
	"fmt"
	"math/rand"
	"time"

	"objectswap"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

// cycle: one 256-cluster chain of 32 nodes per cluster with 128-byte
// payloads, one in-memory donor behind a simulated Bluetooth link, and a
// roomy heap. Each round swaps out every cluster with a timed SwapOut,
// collects, and walks the chain, so every cluster boundary the walk crosses
// is a demand fault. One operation is one cluster's round trip; op_p50_us and
// op_p90_us time the faulting access, the application's stall.
const (
	cycleClusters   = 256
	cyclePerCluster = 32
	cyclePayload    = 128
	cycleRoot       = "chain"
)

type cycle struct {
	sys   *objectswap.System
	ids   []objectswap.ClusterID
	model []heap.Value
	link  *link.Link
	clock *link.VirtualClock
	tr    *tracer
}

func newCycle(seed int64, tr *tracer) (_ instance, err error) {
	sys, err := objectswap.New(objectswap.Config{HeapCapacity: 256 << 20, DeviceName: "pda"})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	w := &cycle{sys: sys, clock: &link.VirtualClock{}, tr: tr}
	w.link = link.Wrap(store.NewMem(0), link.Bluetooth1(), w.clock)
	if err := sys.AttachDevice("desktop", w.link); err != nil {
		return nil, err
	}
	tr.attach(sys)

	cls := sys.MustRegisterClass(nodeClass())
	rng := rand.New(rand.NewSource(seed))
	var prev *heap.Object
	for c := 0; c < cycleClusters; c++ {
		cluster := sys.NewCluster()
		w.ids = append(w.ids, cluster)
		for i := 0; i < cyclePerCluster; i++ {
			o, err := sys.NewObject(cls, cluster)
			if err != nil {
				return nil, err
			}
			p := randPayload(rng, cyclePayload)
			w.model = append(w.model, p)
			if err := sys.SetField(o.RefTo(), "payload", p); err != nil {
				return nil, err
			}
			if prev == nil {
				err = sys.SetRoot(cycleRoot, o.RefTo())
			} else {
				err = sys.SetField(prev.RefTo(), "next", o.RefTo())
			}
			if err != nil {
				return nil, err
			}
			prev = o
		}
	}
	return w, nil
}

func (w *cycle) system() *objectswap.System                { return w.sys }
func (w *cycle) clusters() []objectswap.ClusterID          { return w.ids }
func (w *cycle) links() ([]*link.Link, *link.VirtualClock) { return []*link.Link{w.link}, w.clock }
func (w *cycle) close()                                    { w.sys.Close() }
func (w *cycle) walkAll() error                            { _, err := w.walk(time.Time{}, nil); return err }

// run repeats whole rounds; the stop rule is checked between rounds, so
// every run covers whole round trips.
func (w *cycle) run(stop stopRule) *tally {
	t := &tally{}
	air0 := w.clock.Elapsed()
	start := time.Now()
	for !stop.done(t.ops) {
		for i := len(w.ids) - 1; i >= 0; i-- {
			s := time.Now()
			ev, err := w.sys.SwapOut(w.ids[i])
			wall := t.swap.add(start, s)
			if err != nil {
				t.fail(err)
			} else {
				w.tr.swapOutWall(wall, ev)
			}
		}
		w.sys.Collect()
		done, err := w.walk(start, &t.op)
		t.ops += int64(len(w.ids))
		if err != nil {
			// The round's remaining round trips never happened.
			t.fail(err)
			t.failed += int64(len(w.ids) - done - 1)
		}
	}
	t.elapsed = time.Since(start)
	t.airtime = w.clock.Elapsed() - air0
	return t
}

// walk follows the chain from its root, comparing every payload with the
// model. With faults non-nil it records the time of each cluster-boundary
// access, from reading the link out of the previous cluster to reading the
// first payload of the next, in a timed phase that began at start. It
// returns the number of clusters fully walked.
func (w *cycle) walk(start time.Time, faults *series) (int, error) {
	var cur heap.Value
	for i, want := range w.model {
		boundary := i%cyclePerCluster == 0
		s := time.Now()
		var err error
		if i == 0 {
			cur, err = w.sys.MustRoot(cycleRoot)
		} else {
			cur, err = w.sys.Field(cur, "next")
		}
		if err != nil {
			return i / cyclePerCluster, err
		}
		got, err := w.sys.Field(cur, "payload")
		if err != nil {
			return i / cyclePerCluster, err
		}
		if boundary && faults != nil {
			faults.add(start, s)
		}
		if !got.Equal(want) {
			return i / cyclePerCluster, &mismatchError{fmt.Sprintf("chain node %d", i)}
		}
	}
	return len(w.ids), nil
}
