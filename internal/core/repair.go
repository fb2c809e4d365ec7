package core

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/placement"
	"objectswap/internal/store"
	"objectswap/internal/wire"
)

// Replica maintenance: a swapped cluster's durability is only as good as its
// replica set, and donors in the paper's ad-hoc neighborhood come and go.
// UnderReplicated finds the swapped clusters whose replica count fell below
// target (a replica is "live" when its donor still resolves through the
// store provider — the breaker/connectivity machinery makes that a cheap
// local check), and RepairCluster re-ships one cluster's payload to fresh
// donors chosen by the same rendezvous planner that placed it. The
// placement.Repairer drives both from breaker-open / device-removal /
// read-repair events.

// ReplicaSet returns a swapped cluster's recorded replica devices (primary
// first), or nil when the cluster is resident or unknown.
func (rt *Runtime) ReplicaSet(id ClusterID) []string {
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, ok := ts.clusters[id]
	if !ok || !cs.swapped {
		return nil
	}
	return append([]string(nil), cs.devices...)
}

// swappedSets snapshots the (id, replica set) pairs of every swapped,
// non-busy cluster, shard by shard.
func (rt *Runtime) swappedSets() map[ClusterID][]string {
	out := make(map[ClusterID][]string)
	for _, ts := range rt.mgr.tabs {
		ts.mu.Lock()
		for id, cs := range ts.clusters {
			if cs.swapped && !cs.busy {
				out[id] = append([]string(nil), cs.devices...)
			}
		}
		ts.mu.Unlock()
	}
	return out
}

// liveCount reports how many of the given replicas resolve through the
// store provider right now. Called without manager locks held — Lookup takes
// the registry's own lock.
func (rt *Runtime) liveCount(devices []string) int {
	if rt.stores == nil {
		return 0
	}
	n := 0
	for _, d := range devices {
		if _, err := rt.stores.Lookup(d); err == nil {
			n++
		}
	}
	return n
}

// UnderReplicated returns the swapped, non-busy clusters with fewer than k
// live replicas, in id order. k <= 0 selects the runtime's default
// replication factor.
func (rt *Runtime) UnderReplicated(k int) []ClusterID {
	if k <= 0 {
		k = rt.Replicas()
	}
	var out []ClusterID
	for id, devices := range rt.swappedSets() {
		if rt.liveCount(devices) < k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// liveReplicaTotals sums live replicas across swapped clusters, for the
// replication-factor gauge (mean = live / swapped).
func (rt *Runtime) liveReplicaTotals() (live, swapped int) {
	for _, devices := range rt.swappedSets() {
		swapped++
		live += rt.liveCount(devices)
	}
	return live, swapped
}

// RepairCluster restores a swapped cluster toward k live replicas: it scrubs
// every surviving replica's copy against the checksum recorded at swap-out
// (convicting donor corruption at rest; with K>=2 and no recorded checksum,
// the majority checksum convicts divergent minorities), ships fresh copies
// to donors chosen by the planner (excluding every donor already in the
// set), prunes replicas recorded on dead donors and corrupt copies (their
// payloads go to the deferred-drop queue), and commits the new replica set.
// k <= 0 selects the runtime default. A fully replicated cluster whose scrub
// finds every copy intact reports ErrNoRepair; a cluster with no reachable,
// uncorrupted replica at all reports ErrNoLiveReplica (or ErrCorruptReplica)
// and stays swapped, recoverable when a donor returns.
//
// The cluster is reserved (busy) for the duration, exactly like a swap, so
// repair never races a concurrent SwapIn/SwapOut or the sweep.
func (rt *Runtime) RepairCluster(ctx context.Context, id ClusterID, k int) (SwapEvent, error) {
	if k <= 0 {
		k = rt.Replicas()
	}
	if rt.stores == nil {
		return SwapEvent{}, ErrNoStores
	}
	if rt.placer == nil {
		return SwapEvent{}, fmt.Errorf("core: repair cluster %d: %w", id, ErrNoPlacement)
	}
	ev := SwapEvent{Cluster: id, Trace: rt.newTrace(), Cause: CauseRepair}
	span := rt.tracer.Start(repairKind.op)
	shipped, err := rt.repair(obs.ContextWithTrace(ctx, ev.Trace), k, span, &ev)
	return rt.finishSwap(repairKind, span, &ev, err, "shipped", strings.Join(shipped, ","))
}

// repair runs the phases of RepairCluster, filling ev as they learn the key,
// the serving replica, the format and the new replica set. It returns the
// donors that received fresh copies.
func (rt *Runtime) repair(ctx context.Context, k int, span *obs.Span, ev *SwapEvent) ([]string, error) {
	id := ev.Cluster

	// Reserve the cluster, like any swap transition.
	span.Phase("reserve")
	sh := rt.shardOf(id)
	rt.lockShard(sh)
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	cs, err := ts.state(id)
	if err == nil {
		switch {
		case cs.busy:
			err = fmt.Errorf("%w: cluster %d", ErrClusterBusy, id)
		case !cs.swapped:
			err = fmt.Errorf("%w: cluster %d", ErrClusterLoaded, id)
		}
	}
	if err != nil {
		ts.mu.Unlock()
		sh.mu.Unlock()
		return nil, err
	}
	cs.busy = true
	devices := append([]string(nil), cs.devices...)
	key := cs.key
	wantCRC := cs.crc
	base := shipmentBase{
		key:     cs.base.key,
		format:  cs.base.format,
		crc:     cs.base.crc,
		devices: append([]string(nil), cs.base.devices...),
	}
	ts.mu.Unlock()
	sh.mu.Unlock()
	committed := false
	defer func() {
		if !committed {
			rt.setBusy(id, false)
		}
	}()

	// Probe the recorded replicas: live ones stay, dead ones are pruned.
	span.Phase("probe")
	var live, dead []string
	for _, d := range devices {
		if _, lerr := rt.stores.Lookup(d); lerr == nil {
			live = append(live, d)
		} else {
			dead = append(dead, d)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("core: repair cluster %d (replicas %s): %w",
			id, strings.Join(devices, ","), ErrNoLiveReplica)
	}

	// Scrub every live replica: fetch its copy and checksum it, so donor
	// corruption at rest is detected even when the replica set looks whole.
	// Replicas are byte-identical at shipment time, so the checksum recorded
	// at swap-out convicts a rotted copy directly; without one (state
	// restored from a pre-CRC checkpoint) the copies themselves are the only
	// evidence — with K>=2, the majority checksum convicts divergent
	// minorities, and ties keep the primary-order copy a plain fetch would
	// have served.
	span.Phase("fetch")
	ev.Key = key
	type replicaCopy struct {
		device string
		store  store.Store
		data   []byte
		opts   store.PutOpts
		sum    uint32
	}
	var copies []replicaCopy
	var fetchErr error
	for _, d := range live {
		s, lerr := rt.stores.Lookup(d)
		if lerr != nil {
			continue
		}
		b, o, gerr := store.GetWith(ctx, s, key)
		if gerr != nil {
			fetchErr = gerr
			continue
		}
		copies = append(copies, replicaCopy{d, s, b, o, crc32.ChecksumIEEE(b)})
	}
	if wantCRC == 0 && len(copies) >= 2 {
		counts := make(map[uint32]int, len(copies))
		for _, c := range copies {
			counts[c.sum]++
		}
		if len(counts) > 1 {
			best := 0
			for _, c := range copies {
				if counts[c.sum] > best {
					best, wantCRC = counts[c.sum], c.sum
				}
			}
			rt.logger.Warn("repair: replica payloads diverge; majority checksum wins",
				"trace", ev.Trace, "cluster", uint32(id), "groups", len(counts))
		}
	}
	var (
		data         []byte
		popts        store.PutOpts
		serving      string
		servingStore store.Store
		corrupt      []string
	)
	for _, c := range copies {
		if wantCRC != 0 && c.sum != wantCRC {
			rt.logger.Warn("repair: replica payload corrupt at rest",
				"trace", ev.Trace, "cluster", uint32(id), "device", c.device)
			corrupt = append(corrupt, c.device)
			continue
		}
		if serving == "" {
			data, popts, serving, servingStore = c.data, c.opts, c.device, c.store
		}
	}
	if serving == "" {
		err = fetchErr
		if len(corrupt) > 0 {
			err = fmt.Errorf("%w: key %s on %s", ErrCorruptReplica, key, strings.Join(corrupt, ","))
		}
		if err == nil {
			err = ErrNoLiveReplica
		}
		return nil, fmt.Errorf("core: repair cluster %d: fetch: %w", id, err)
	}
	if len(corrupt) > 0 {
		// Demote convicted copies: their donors are reachable but their
		// bytes are worthless, so treat them exactly like dead replicas —
		// pruned from the set, payload queued for dropping, re-shipped over.
		corruptSet := make(map[string]bool, len(corrupt))
		for _, d := range corrupt {
			corruptSet[d] = true
		}
		kept := live[:0]
		for _, d := range live {
			if !corruptSet[d] {
				kept = append(kept, d)
			}
		}
		live = kept
		dead = append(dead, corrupt...)
	}
	if len(live) >= k && len(dead) == 0 {
		return nil, ErrNoRepair
	}
	ev.Device, ev.Format, ev.Bytes = serving, popts.Format, len(data)
	span.AddBytes(int64(len(data)))

	// Ship fresh copies in the fetched format — the planner skips donors that
	// do not accept it. Quorum 1: a partial repair still improves durability,
	// and the next sweep finishes the job when donors appear.
	span.Phase("ship")
	var fresh []string
	if need := k - len(live); need > 0 {
		rep, serr := rt.placer.Ship(ctx, placement.ShipRequest{
			Key: key, Data: data, Replicas: need, Quorum: 1, Exclude: devices,
			Format: popts.Format,
		})
		if serr != nil && len(dead) == 0 {
			// Nothing shipped and nothing to prune: the repair achieved
			// nothing, report it.
			return nil, fmt.Errorf("core: repair cluster %d: %w", id, serr)
		}
		fresh = rep.Replicas
	}

	// A delta payload is useless without its base: every fresh donor must
	// also receive the base payload, fetched from the replica that served the
	// delta. A donor that cannot take the base loses its delta copy too —
	// half a shipment serves nothing.
	if popts.Format == string(wire.FormatDelta) && len(fresh) > 0 && base.key != "" {
		baseData, baseOpts, berr := store.GetWith(ctx, servingStore, base.key)
		usable := fresh[:0]
		for _, d := range fresh {
			var cerr error = berr
			if cerr == nil {
				if s, lerr := rt.stores.Lookup(d); lerr != nil {
					cerr = lerr
				} else {
					cerr = store.PutWith(ctx, s, base.key, baseData, baseOpts)
				}
			}
			if cerr != nil {
				rt.logger.Warn("repair: base copy failed; dropping orphan delta",
					"trace", ev.Trace, "cluster", uint32(id), "device", d, "err", cerr)
				if derr := rt.dropFromDevice(d, key); derr != nil {
					rt.mgr.deferDrop(d, key, id)
				}
				continue
			}
			usable = append(usable, d)
			base.devices = append(base.devices, d)
		}
		fresh = usable
		if len(fresh) == 0 && len(dead) == 0 {
			if berr == nil {
				berr = errors.New("no fresh donor accepted the base payload")
			}
			return nil, fmt.Errorf("core: repair cluster %d: base copy: %w", id, berr)
		}
	}
	newSet := append(append([]string(nil), live...), fresh...)

	// Commit the new replica set, mirroring commitSwapOut's bookkeeping. The
	// delta-base record follows the repair: a full shipment that doubles as
	// the base mirrors the new set directly, a repaired delta keeps the base
	// donors minus the pruned dead ones plus the fresh copies made above.
	span.Phase("commit")
	deadSet := make(map[string]bool, len(dead))
	for _, d := range dead {
		deadSet[d] = true
	}
	rt.lockShard(sh)
	ts.mu.Lock()
	cs.devices = append([]string(nil), newSet...)
	baseKey := cs.base.key
	if baseKey == key {
		cs.base.devices = append([]string(nil), newSet...)
	} else if baseKey != "" {
		var bd []string
		for _, d := range base.devices {
			if !deadSet[d] {
				bd = append(bd, d)
			}
		}
		cs.base.devices = bd
	}
	replID := cs.replacement
	ts.mu.Unlock()
	if repl, gerr := rt.h.Get(replID); gerr == nil {
		_ = repl.SetFieldByName(fldStore, heap.Str(strings.Join(newSet, ",")))
	}
	sh.mu.Unlock()
	committed = true
	rt.setBusy(id, false)
	for _, d := range dead {
		rt.mgr.deferDrop(d, key, id)
		if baseKey != "" && baseKey != key {
			rt.mgr.deferDrop(d, baseKey, id)
		}
	}

	ev.Device, ev.Attempted, ev.Replicas = newSet[0], dead, newSet
	return fresh, nil
}
