package core

import (
	"context"

	"objectswap/internal/event"
	"objectswap/internal/heap"
)

// Collect runs a local garbage collection integrated with swapping, per the
// paper's Section 3 "Integration with GC Mechanisms":
//
//   - the reachability of a swap-cluster is considered as a whole: while a
//     swapped cluster's replacement-object is reachable, every outbound proxy
//     it retains stays live, so downstream clusters are conservatively
//     preserved (this falls out of ordinary marking, since the
//     replacement-object holds heap references to those proxies);
//   - when a replacement-object has become unreachable, the whole swapped
//     cluster is dead: the storing device is instructed to drop the XML and
//     the SwappingManager forgets the cluster. No DGC spans the devices — all
//     decisions are local, and the device only ever stores, returns or drops.
//
// In-flight invocation operands (the middleware's stand-in for thread stacks)
// are passed to the collector as extra roots.
//
// The mark-sweep and the swapped-cluster sweep stop the world: every swap
// shard's lock is acquired (in order), so a collection never interleaves with
// the reserve/commit phases of a concurrent swap-out or swap-in on any shard
// (in particular, freshly installed objects cannot lose their nursery grace
// before the inbound proxies that make them reachable are patched).
// Device-drop retries run unlocked — they are IO.
func (rt *Runtime) Collect() heap.CollectStats {
	rt.lockAll()
	st := rt.h.Collect(rt.stack...)
	rt.sweepSwapped()
	rt.unlockAll()
	rt.mgr.compact()
	rt.mgr.retryDrops(rt)
	return st
}

// sweepSwapped drops swapped clusters whose replacement-objects were
// reclaimed. Every replica of a dead cluster is told to discard its copy;
// replicas on unreachable donors go to the deferred-drop queue.
func (rt *Runtime) sweepSwapped() {
	type victim struct {
		id      ClusterID
		devices []string
		key     string
		bytes   int
		// Delta anchoring may retain a second payload (the base) under its
		// own key; a dead cluster's base dies with it.
		baseKey     string
		baseDevices []string
	}
	var victims []victim

	m := rt.mgr
	m.mu.Lock()
	for _, ts := range m.tabs {
		ts.mu.Lock()
		for id, cs := range ts.clusters {
			if !cs.swapped || cs.busy {
				continue // busy: a swap-in holds a pin on the replacement
			}
			if rt.h.Contains(cs.replacement) {
				continue
			}
			v := victim{id: id, devices: append([]string(nil), cs.devices...),
				key: cs.key, bytes: cs.payloadBytes}
			if cs.base.key != "" && cs.base.key != cs.key {
				v.baseKey = cs.base.key
				v.baseDevices = append([]string(nil), cs.base.devices...)
			}
			victims = append(victims, v)
			for oid := range cs.objects {
				delete(m.objects, oid)
			}
			delete(m.inbound, id)
			delete(ts.clusters, id)
		}
		ts.mu.Unlock()
	}
	m.mu.Unlock()

	for _, v := range victims {
		for _, device := range v.devices {
			if err := rt.dropFromDevice(device, v.key); err != nil {
				rt.mgr.deferDrop(device, v.key, v.id)
			}
		}
		for _, device := range v.baseDevices {
			if err := rt.dropFromDevice(device, v.baseKey); err != nil {
				rt.mgr.deferDrop(device, v.baseKey, v.id)
			}
		}
		primary := ""
		if len(v.devices) > 0 {
			primary = v.devices[0]
		}
		rt.emit(event.TopicSwapDrop, SwapEvent{
			Cluster: v.id, Device: primary, Key: v.key, Bytes: v.bytes,
			Replicas: v.devices,
		})
	}
}

// dropFromDevice instructs a device to discard a stored shipment.
func (rt *Runtime) dropFromDevice(device, key string) error {
	if rt.stores == nil {
		return ErrNoStores
	}
	s, err := rt.stores.Lookup(device)
	if err != nil {
		return err
	}
	return s.Drop(context.Background(), key)
}

// deferDrop queues a failed drop for retry on the next collection (the
// device may be temporarily unreachable).
func (m *Manager) deferDrop(device, key string, cluster ClusterID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pendingDrops = append(m.pendingDrops, dropTicket{device: device, key: key, cluster: cluster})
}

// DefaultDropRetryLimit bounds how many collections may re-attempt one
// deferred device-drop before it is abandoned.
const DefaultDropRetryLimit = 8

// SetDropRetryLimit overrides the per-ticket retry budget (n <= 0 restores
// the default).
func (m *Manager) SetDropRetryLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		n = DefaultDropRetryLimit
	}
	m.dropRetryLimit = n
}

// retryDrops re-attempts queued drops. A ticket that keeps failing is not
// retried forever: after the retry budget is spent it is abandoned with a
// swap.drop.abandoned event, so operators learn about the leaked remote
// payload instead of the queue growing without bound.
func (m *Manager) retryDrops(rt *Runtime) {
	m.mu.Lock()
	pending := m.pendingDrops
	m.pendingDrops = nil
	limit := m.dropRetryLimit
	m.mu.Unlock()

	for _, t := range pending {
		if err := rt.dropFromDevice(t.device, t.key); err != nil {
			t.attempts++
			if t.attempts >= limit {
				m.mu.Lock()
				m.abandonedDrops++
				m.mu.Unlock()
				rt.emit(event.TopicDropAbandoned, SwapEvent{
					Cluster: t.cluster, Device: t.device, Key: t.key,
				})
				continue
			}
			m.mu.Lock()
			m.pendingDrops = append(m.pendingDrops, t)
			m.mu.Unlock()
		}
	}
}

// PendingDrops reports how many device-drop instructions await retry.
func (m *Manager) PendingDrops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pendingDrops)
}

// AbandonedDrops reports how many deferred drops exhausted their retry
// budget — each one is a payload possibly leaked on a remote device.
func (m *Manager) AbandonedDrops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.abandonedDrops
}

// compact removes membership records of loaded-cluster objects that the
// collector has reclaimed, so cluster statistics and swap-out payloads track
// the live graph.
func (m *Manager) compact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ts := range m.tabs {
		ts.mu.Lock()
		for _, cs := range ts.clusters {
			if cs.swapped {
				continue // members are away, not dead
			}
			for oid := range cs.objects {
				if !m.rt.h.Contains(oid) {
					delete(cs.objects, oid)
					delete(m.objects, oid)
				}
			}
		}
		ts.mu.Unlock()
	}
}

// enterCrossing is the hot-path combination used by proxy dispatch: it
// resolves the target's cluster, records the crossing, and reports whether
// the cluster is currently swapped out. Only the object index lookup takes
// the manager lock; the statistics land under the affected clusters' table
// shards, so crossings into different shards proceed in parallel.
func (m *Manager) enterCrossing(src ClusterID, ultimate heap.ObjID) (dst ClusterID, swapped bool) {
	m.mu.Lock()
	if info, ok := m.objects[ultimate]; ok {
		dst = info.cluster
	}
	m.mu.Unlock()
	now := m.clock.Add(1)
	pair := m.lockPair(dst, src)
	if cs, ok := m.tab(dst).clusters[dst]; ok {
		cs.crossings++
		cs.lastAccess = now
		swapped = cs.swapped
	}
	if cs, ok := m.tab(src).clusters[src]; ok {
		cs.lastAccess = now
	}
	pair.unlock()
	// Heat tracking mirrors the recency feed; touches go out after the
	// table locks are released (Touch is leaf-safe, but there is no reason
	// to extend the critical section for it).
	m.rt.noteTouch(dst, true)
	if src != dst {
		m.rt.noteTouch(src, false)
	}
	return dst, swapped
}
