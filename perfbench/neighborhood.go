package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"objectswap"
	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/link"
	"objectswap/internal/store"
)

// neighborhood: 256 shared single-cluster tenants of 16 nodes with 64-byte
// payloads, worked by two concurrent clients against three HTTP donors on
// loopback with two replicas per shipment and a roomy heap. Each operation
// picks a tenant with Zipf skew; 60% walk it and 40% swap it out. A walk of
// a swapped-out tenant first faults it in with SwapIn, concurrently with the
// other client, then reads it under the application lock; SwapOut takes that
// lock too (see tenants.app). A SwapIn and a SwapOut of the same cluster on
// two goroutines refuse each other with ErrClusterBusy, so the clients order
// them per tenant (see neighborhood.order). Operation times leave out the
// wait for either lock. Swapping out a tenant that is already swapped out is
// a no-op and not counted. The fault engine's coalescing and batching,
// placement fan-out, the transport decorator, HTTP and the shard locks do the
// work; the radio link and the evictor do none.
const (
	hoodClients   = 2
	hoodTenants   = 256
	hoodPerTenant = 16
	hoodPayload   = 64
	hoodDonors    = 3
	hoodReplicas  = 2
	hoodZipfS     = 1.1
	hoodWalkFrac  = 0.6
)

type neighborhood struct {
	*tenants
	servers []*httptest.Server
	seed    int64
	tr      *tracer
	// order keeps a tenant's SwapIn and SwapOut apart, as an application
	// that owns its tenants would: faults take the read side, so concurrent
	// faults on one tenant still meet in the fault engine and coalesce, and
	// swap-outs take the write side before the application lock.
	order []sync.RWMutex
}

func newNeighborhood(seed int64, tr *tracer) (_ instance, err error) {
	sys, err := objectswap.New(objectswap.Config{
		HeapCapacity: 256 << 20,
		DeviceName:   "pda",
		Replicas:     hoodReplicas,
	})
	if err != nil {
		return nil, err
	}
	w := &neighborhood{tenants: &tenants{sys: sys}, seed: seed, tr: tr, order: make([]sync.RWMutex, hoodTenants)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for d := 0; d < hoodDonors; d++ {
		srv := httptest.NewServer(tr.wrapHandler(store.NewHandler(store.NewMem(0))))
		w.servers = append(w.servers, srv)
		if err := sys.AttachDevice(fmt.Sprintf("donor-%d", d), store.NewClient(srv.URL)); err != nil {
			return nil, err
		}
	}
	tr.attach(sys)

	rng := rand.New(rand.NewSource(seed))
	ts, err := buildTenants(sys, rng, hoodTenants, hoodPerTenant, hoodPayload)
	if err != nil {
		return nil, err
	}
	w.tenants = ts
	for _, i := range rng.Perm(hoodTenants)[:hoodTenants/2] {
		if _, err := sys.SwapOut(w.ids[i]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *neighborhood) system() *objectswap.System                { return w.sys }
func (w *neighborhood) clusters() []objectswap.ClusterID          { return w.ids }
func (w *neighborhood) links() ([]*link.Link, *link.VirtualClock) { return nil, nil }

func (w *neighborhood) close() {
	w.sys.Close()
	for _, s := range w.servers {
		s.Close()
	}
}

func (w *neighborhood) run(stop stopRule) *tally {
	return runClients(hoodClients, hoodTenants, hoodZipfS, w.seed, stop, w.tr, func(c *client) (opKind, time.Duration, error) {
		i := c.pick.next()
		id := w.ids[i]
		if c.rng.Float64() < hoodWalkFrac {
			var fault time.Duration
			if w.sys.Runtime().Manager().IsSwapped(id) {
				w.order[i].RLock()
				start := time.Now()
				_, err := w.sys.SwapIn(id)
				fault = time.Since(start)
				w.order[i].RUnlock()
				if err != nil && !errors.Is(err, core.ErrClusterLoaded) {
					return opWalk, fault, err
				}
			}
			took, err := w.walk(i, -1, heap.Value{})
			return opWalk, fault + took, err
		}
		w.order[i].Lock()
		took, err := w.locked(func() error {
			_, err := w.sys.SwapOut(id)
			return err
		})
		w.order[i].Unlock()
		if errors.Is(err, core.ErrClusterSwapped) {
			return opNone, 0, nil // already swapped out: a no-op, not an operation
		}
		return opSwapOut, took, err
	})
}
