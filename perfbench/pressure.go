package main

import (
	"math/rand"
	"time"

	"objectswap"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

// pressure: 512 single-cluster tenants of 16 nodes with 64-byte payloads.
// Three quarters start swapped out and the heap is capped at a third of the
// full footprint, so faulting a tenant in runs the evictor (victim
// selection, swap-out, full-heap Collect) under the default swap-on-pressure
// policy. Walks are Zipf-skewed and one in ten overwrites one payload, so
// dirty tenants re-ship as deltas beside clean reloads. Two in-memory donors
// sit behind simulated Bluetooth links. One client: the workload isolates
// the evictor's cost (see NOTES.md for the two-client defect).
const (
	pressureClients   = 1
	pressureTenants   = 512
	pressurePerTenant = 16
	pressurePayload   = 64
	pressureZipfS     = 1.1
	pressureWriteFrac = 0.1
)

type pressure struct {
	*tenants
	lks   []*link.Link
	clock *link.VirtualClock
	seed  int64
	tr    *tracer
	// evicted collects the swap-outs the runtime ran on its own (evictor
	// and policy), the workload's swap-out latency.
	evicted *runtimeSwapOuts
}

func newPressure(seed int64, tr *tracer) (_ instance, err error) {
	sys, err := objectswap.New(objectswap.Config{
		DeviceName:  "pda",
		WireFormats: []string{"delta", "binary"},
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	w := &pressure{clock: &link.VirtualClock{}, seed: seed, tr: tr,
		evicted: subscribeSwapOuts(sys)}
	for _, name := range []string{"desktop", "laptop"} {
		l := link.Wrap(store.NewMem(0), link.Bluetooth1(), w.clock)
		w.lks = append(w.lks, l)
		if err := sys.AttachDevice(name, l); err != nil {
			return nil, err
		}
	}
	tr.attach(sys)

	rng := rand.New(rand.NewSource(seed))
	if w.tenants, err = buildTenants(sys, rng, pressureTenants, pressurePerTenant, pressurePayload); err != nil {
		return nil, err
	}
	footprint := sys.Heap().Used()
	for _, i := range rng.Perm(pressureTenants)[:pressureTenants*3/4] {
		if _, err := sys.SwapOut(w.ids[i]); err != nil {
			return nil, err
		}
	}
	// The facade's nursery grace keeps fresh objects through two collections.
	for i := 0; i < 3; i++ {
		sys.Collect()
	}
	sys.Heap().SetCapacity(footprint / 3)
	return w, nil
}

func (w *pressure) system() *objectswap.System                { return w.sys }
func (w *pressure) clusters() []objectswap.ClusterID          { return w.ids }
func (w *pressure) links() ([]*link.Link, *link.VirtualClock) { return w.lks, w.clock }
func (w *pressure) close()                                    { w.sys.Close() }

func (w *pressure) run(stop stopRule) *tally {
	air0 := w.clock.Elapsed()
	w.evicted.take()
	t := runClients(pressureClients, pressureTenants, pressureZipfS, w.seed, stop, w.tr, func(c *client) (opKind, time.Duration, error) {
		i := c.pick.next()
		write, v := -1, heap.Value{}
		if c.rng.Float64() < pressureWriteFrac {
			write, v = c.rng.Intn(pressurePerTenant), randPayload(c.rng, pressurePayload)
		}
		took, err := w.walk(i, write, v)
		return opWalk, took, err
	})
	t.airtime = w.clock.Elapsed() - air0
	t.swap = w.evicted.take()
	return t
}
