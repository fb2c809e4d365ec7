package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"objectswap/internal/heap"
)

// objInfo is the SwappingManager's per-object record: which swap-cluster the
// object belongs to and its class name (needed to synthesize proxies for
// objects that are currently swapped out, hence not resident).
type objInfo struct {
	cluster ClusterID
	class   string
}

// shipmentBase records the last full shipment of a cluster that donors still
// hold, the anchor a delta re-shipment applies against. members is the
// cluster's membership at base time (needed to compute the removed set);
// it is not checkpointed, so a restored base supports key cleanup but not
// delta encoding — the first post-restore swap-out ships full.
type shipmentBase struct {
	key     string
	devices []string
	format  string
	// crc is the IEEE CRC32 of the base payload as shipped, verified when a
	// delta decode fetches the base back (0 = unknown, legacy state).
	crc     uint32
	members []heap.ObjID
	// slots is the base document's outbound slot table: the ultimate target
	// of each outbound slot, in slot order. A delta re-shipment must keep
	// this table as a prefix of its own so slot references encoded inside
	// unchanged base objects still resolve after the merge.
	slots []heap.ObjID
}

// usable reports whether the base can anchor a delta (key known AND the
// membership snapshot survived — false after a checkpoint restore).
func (b shipmentBase) usable() bool { return b.key != "" && len(b.members) > 0 }

// clusterState is the SwappingManager's per-swap-cluster record.
type clusterState struct {
	id      ClusterID
	objects map[heap.ObjID]bool

	// Boundary-crossing statistics (recency and frequency), fed by proxy
	// traversal as the paper describes.
	crossings  uint64
	lastAccess uint64

	// busy marks a swap-out or swap-in in flight on this cluster: the state
	// transition has been reserved but not committed. Busy clusters are
	// skipped by victim selection, refused by SwapOut/SwapIn, and left alone
	// by sweepSwapped until the transition settles.
	busy bool

	// Swapped-out state. devices is the replica set holding the shipment,
	// primary first; under the default replication factor of 1 it is a
	// singleton.
	swapped      bool
	replacement  heap.ObjID
	devices      []string
	key          string
	payloadBytes int
	// crc is the IEEE CRC32 of the shipped payload (every replica is
	// byte-identical). Swap-in and repair verify fetched bytes against it,
	// detecting donor corruption at rest and falling through to the next
	// replica. 0 means unknown (shipments recorded before checksumming).
	crc uint32
	// residentBytes at the moment of swap-out, used to pre-check reload room.
	bytesAtSwap int64
	// format is the wire format of the current shipment ("" = XML, the
	// pre-negotiation default). Informational: the payload self-describes.
	format string

	// Delta re-shipment state (only populated when the runtime enables the
	// delta format). base is the last full shipment donors still hold; dirty
	// accumulates the members mutated since that base — relative to base, not
	// to the last delta, so it is cleared only when a new full shipment
	// becomes the base (full swap-out) or the base provably matches resident
	// state (full swap-in).
	base  shipmentBase
	dirty map[heap.ObjID]bool

	swapOuts uint64
	swapIns  uint64
}

// primaryDevice is the best-ranked donor holding the cluster's shipment
// ("" while resident).
func (cs *clusterState) primaryDevice() string {
	if len(cs.devices) == 0 {
		return ""
	}
	return cs.devices[0]
}

// proxyKey identifies the unique swap-cluster-proxy for a
// (source-cluster, target-object) pair. The paper: "When there are multiple
// references to the same object, across the same pair of swap-clusters, only
// a swap-cluster-proxy is required."
type proxyKey struct {
	src    ClusterID
	target heap.ObjID
}

// tableShard is one independently locked slice of the sharded cluster table:
// the records (including the busy reservation flag) of every cluster whose id
// hashes onto it. The object, proxy, drop and crossing-clock indexes stay
// under Manager.mu. Lock order: Manager.mu may be held while taking a
// tableShard lock, never the reverse; multiple tableShard locks are taken in
// ascending index order.
type tableShard struct {
	mu       sync.Mutex
	clusters map[ClusterID]*clusterState
}

// state returns the shard's record for id. The caller holds ts.mu.
func (ts *tableShard) state(id ClusterID) (*clusterState, error) {
	cs, ok := ts.clusters[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCluster, id)
	}
	return cs, nil
}

// counts tallies the shard's clusters by state for the per-shard gauges. It
// takes only the shard's own lock, so metric gathering never contends with
// swaps on other shards.
func (ts *tableShard) counts() (resident, swapped, busy float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, cs := range ts.clusters {
		if cs.busy {
			busy++
		}
		if cs.swapped {
			swapped++
		} else {
			resident++
		}
	}
	return resident, swapped, busy
}

// Manager is the paper's SwappingManager: it tracks swap-clusters, the
// objects belonging to each, and all swap-cluster-proxies (through weak
// references purged by proxy finalizers).
type Manager struct {
	rt *Runtime

	// tabs is the sharded cluster table; the record for cluster id lives on
	// tabs[shardIndexFor(id, len(tabs))], aligned with the runtime's swap
	// shards so one shard's swaps touch one table shard.
	tabs []*tableShard

	mu           sync.Mutex
	nextCluster  ClusterID
	objects      map[heap.ObjID]objInfo
	proxies      map[proxyKey]heap.ObjID
	proxyMeta    map[heap.ObjID]proxyKey
	objProxies   map[heap.ObjID]heap.ObjID // remote identity -> proxy id
	objProxyMeta map[heap.ObjID]heap.ObjID // proxy id -> remote identity
	// cursorProxies marks private self-patching cursors: they are never
	// offered for shared reuse (their targets are volatile).
	cursorProxies map[heap.ObjID]bool
	// inbound indexes live proxies by the cluster of their ultimate target,
	// so swap-out can patch every inbound proxy of the victim cluster.
	inbound map[ClusterID]map[heap.ObjID]bool

	// pendingDrops holds (device, key) pairs whose Drop failed (device
	// unreachable); retried on the next collection until the per-ticket
	// budget is spent, then abandoned with a swap.drop.abandoned event.
	pendingDrops   []dropTicket
	dropRetryLimit int
	abandonedDrops int

	// clock is the recency clock advanced by boundary crossings and
	// allocations; atomic so crossings on different shards never share a lock.
	clock atomic.Uint64
}

type dropTicket struct {
	device   string
	key      string
	cluster  ClusterID
	attempts int
}

func newManager(rt *Runtime, shards int) *Manager {
	m := &Manager{
		rt:             rt,
		tabs:           make([]*tableShard, shards),
		objects:        make(map[heap.ObjID]objInfo),
		proxies:        make(map[proxyKey]heap.ObjID),
		proxyMeta:      make(map[heap.ObjID]proxyKey),
		objProxies:     make(map[heap.ObjID]heap.ObjID),
		objProxyMeta:   make(map[heap.ObjID]heap.ObjID),
		cursorProxies:  make(map[heap.ObjID]bool),
		inbound:        make(map[ClusterID]map[heap.ObjID]bool),
		dropRetryLimit: DefaultDropRetryLimit,
	}
	for i := range m.tabs {
		m.tabs[i] = &tableShard{clusters: make(map[ClusterID]*clusterState)}
	}
	m.tab(RootCluster).clusters[RootCluster] = &clusterState{
		id:      RootCluster,
		objects: make(map[heap.ObjID]bool),
	}
	return m
}

// tab returns the table shard holding cluster id's record.
func (m *Manager) tab(id ClusterID) *tableShard {
	return m.tabs[shardIndexFor(id, len(m.tabs))]
}

// shardPair is the table shards of two clusters as lockPair locked them:
// lo before hi in ascending index order, one shard when both share it.
type shardPair struct{ lo, hi *tableShard }

// lockPair locks the table shards of two clusters in ascending index order
// (a single acquisition when they share one); release them with unlock.
func (m *Manager) lockPair(a, b ClusterID) shardPair {
	ia := shardIndexFor(a, len(m.tabs))
	ib := shardIndexFor(b, len(m.tabs))
	if ia > ib {
		ia, ib = ib, ia
	}
	p := shardPair{lo: m.tabs[ia], hi: m.tabs[ib]}
	p.lo.mu.Lock()
	if p.hi != p.lo {
		p.hi.mu.Lock()
	}
	return p
}

// unlock releases the pair in reverse acquisition order.
func (p shardPair) unlock() {
	if p.hi != p.lo {
		p.hi.mu.Unlock()
	}
	p.lo.mu.Unlock()
}

// lockTabs locks every table shard in ascending index order, for whole-table
// iteration (sweep, compact, invariants); unlockTabs reverses it.
func (m *Manager) lockTabs() {
	for _, ts := range m.tabs {
		ts.mu.Lock()
	}
}

func (m *Manager) unlockTabs() {
	for i := len(m.tabs) - 1; i >= 0; i-- {
		m.tabs[i].mu.Unlock()
	}
}

// replacementIfSwapped reports the cluster's replacement-object while it is
// swapped out — the target a fresh inbound reference must be mediated onto.
func (m *Manager) replacementIfSwapped(id ClusterID) (heap.ObjID, bool) {
	ts := m.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, ok := ts.clusters[id]
	if !ok || !cs.swapped {
		return heap.NilID, false
	}
	return cs.replacement, true
}

// NewCluster declares a fresh, empty swap-cluster and returns its id.
func (m *Manager) NewCluster() ClusterID {
	m.mu.Lock()
	m.nextCluster++
	id := m.nextCluster
	m.mu.Unlock()
	ts := m.tab(id)
	ts.mu.Lock()
	ts.clusters[id] = &clusterState{id: id, objects: make(map[heap.ObjID]bool)}
	ts.mu.Unlock()
	return id
}

// Clusters returns the ids of all known swap-clusters in order.
func (m *Manager) Clusters() []ClusterID {
	var ids []ClusterID
	for _, ts := range m.tabs {
		ts.mu.Lock()
		for id := range ts.clusters {
			ids = append(ids, id)
		}
		ts.mu.Unlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// assign records an object as a member of a cluster.
func (m *Manager) assign(id heap.ObjID, cluster ClusterID, class string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tab(cluster)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, ok := ts.clusters[cluster]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownCluster, cluster)
	}
	if cs.swapped {
		return fmt.Errorf("%w: cluster %d", ErrClusterSwapped, cluster)
	}
	if prev, dup := m.objects[id]; dup {
		return fmt.Errorf("core: object @%d already assigned to cluster %d", id, prev.cluster)
	}
	m.objects[id] = objInfo{cluster: cluster, class: class}
	cs.objects[id] = true
	// Allocation into a cluster is a use signal: advance its recency so
	// victim selection does not evict the cluster being built. Heat
	// tracking sees the same signal (Touch is a leaf call, safe here).
	cs.lastAccess = m.clock.Add(1)
	m.rt.noteTouch(cluster, false)
	return nil
}

// ClusterOf reports the swap-cluster an object belongs to. Objects never
// assigned belong to RootCluster.
func (m *Manager) ClusterOf(id heap.ObjID) ClusterID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if info, ok := m.objects[id]; ok {
		return info.cluster
	}
	return RootCluster
}

// classOf returns the recorded class name of an object (valid even while the
// object is swapped out).
func (m *Manager) classOf(id heap.ObjID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info, ok := m.objects[id]
	return info.class, ok
}

// IsSwapped reports whether the cluster is currently swapped out.
func (m *Manager) IsSwapped(id ClusterID) bool {
	ts := m.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, ok := ts.clusters[id]
	return ok && cs.swapped
}

// registerProxy records a freshly created proxy under its key and indexes it
// as inbound to its target's cluster.
func (m *Manager) registerProxy(pid heap.ObjID, key proxyKey, targetCluster ClusterID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.proxies[key] = pid
	m.proxyMeta[pid] = key
	idx := m.inbound[targetCluster]
	if idx == nil {
		idx = make(map[heap.ObjID]bool)
		m.inbound[targetCluster] = idx
	}
	idx[pid] = true
}

// registerCursorProxy indexes a private cursor proxy for swap-out patching
// and finalizer purging without exposing it to registry reuse.
func (m *Manager) registerCursorProxy(pid heap.ObjID, key proxyKey, targetCluster ClusterID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.proxyMeta[pid] = key
	m.cursorProxies[pid] = true
	idx := m.inbound[targetCluster]
	if idx == nil {
		idx = make(map[heap.ObjID]bool)
		m.inbound[targetCluster] = idx
	}
	idx[pid] = true
}

// lookupProxy finds the live proxy for key, if any.
func (m *Manager) lookupProxy(key proxyKey) (heap.ObjID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pid, ok := m.proxies[key]
	if !ok {
		return heap.NilID, false
	}
	return pid, true
}

// retargetProxy moves a proxy from its old key to a new target (the Assign
// iteration optimization). The registry slot for the new key is claimed only
// if vacant.
func (m *Manager) retargetProxy(pid heap.ObjID, newTarget heap.ObjID, newTargetCluster ClusterID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, ok := m.proxyMeta[pid]
	if !ok {
		// The proxy was collected and purged (or never registered): a
		// retarget must not resurrect registry entries for a dead object.
		return
	}
	if cur, live := m.proxies[old]; live && cur == pid {
		delete(m.proxies, old)
	}
	if info, known := m.objects[old.target]; known {
		if idx := m.inbound[info.cluster]; idx != nil {
			delete(idx, pid)
		}
	}
	nk := proxyKey{src: old.src, target: newTarget}
	m.proxyMeta[pid] = nk
	// Private cursors never enter the shared registry: their targets are
	// volatile, and a shared reuse would hand out a reference that patches
	// itself away underneath the holder.
	if _, taken := m.proxies[nk]; !taken && !m.cursorProxies[pid] {
		m.proxies[nk] = pid
	}
	idx := m.inbound[newTargetCluster]
	if idx == nil {
		idx = make(map[heap.ObjID]bool)
		m.inbound[newTargetCluster] = idx
	}
	idx[pid] = true
}

// purgeProxy is the proxy finalizer: it removes all SwappingManager entries
// referring to the reclaimed proxy, as the paper prescribes.
func (m *Manager) purgeProxy(pid heap.ObjID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key, ok := m.proxyMeta[pid]
	if !ok {
		return
	}
	delete(m.proxyMeta, pid)
	delete(m.cursorProxies, pid)
	if cur, live := m.proxies[key]; live && cur == pid {
		delete(m.proxies, key)
	}
	for _, idx := range m.inbound {
		delete(idx, pid)
	}
}

// inboundProxies snapshots the live proxies whose ultimate target lies in
// cluster id.
func (m *Manager) inboundProxies(id ClusterID) []heap.ObjID {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := m.inbound[id]
	out := make([]heap.ObjID, 0, len(idx))
	for pid := range idx {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NeighborClusters ranks the clusters reachable from cluster through its
// registered swap-cluster-proxies — the replacement-object graph's
// inter-cluster edges — by edge count, best first, at most k entries (ties
// break toward the lower cluster id for determinism). The root cluster and
// self-edges are excluded. This is the prefetcher's ranking signal: a proxy
// from A to B exists exactly because application references cross that
// boundary, so a demand fault on A makes B the next likely fault.
func (m *Manager) NeighborClusters(cluster uint32, k int) []uint32 {
	if k <= 0 {
		return nil
	}
	src := ClusterID(cluster)
	counts := make(map[ClusterID]int)
	m.mu.Lock()
	for _, pk := range m.proxyMeta {
		if pk.src != src {
			continue
		}
		dst := m.objects[pk.target].cluster
		if dst == src || dst == RootCluster {
			continue
		}
		counts[dst]++
	}
	m.mu.Unlock()
	ranked := make([]ClusterID, 0, len(counts))
	for dst := range counts {
		ranked = append(ranked, dst)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if counts[ranked[i]] != counts[ranked[j]] {
			return counts[ranked[i]] > counts[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]uint32, len(ranked))
	for i, id := range ranked {
		out[i] = uint32(id)
	}
	return out
}

// ProxyCount reports the number of live registered swap-cluster-proxies.
func (m *Manager) ProxyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.proxyMeta)
}

// ClusterInfo is a public snapshot of one swap-cluster's state.
type ClusterInfo struct {
	ID            ClusterID
	Objects       int
	ResidentBytes int64
	Swapped       bool
	// Busy reports a swap transition in flight on another goroutine.
	Busy bool
	// Device is the primary replica (the best-ranked donor holding the
	// shipment); Devices is the full replica set, primary first.
	Device       string
	Devices      []string
	Key          string
	PayloadBytes int
	// Format is the wire format of the current shipment ("" while resident
	// or for pre-negotiation XML shipments).
	Format string
	// BaseKey is the retained delta-base shipment's key ("" when the
	// runtime is not delta-enabled or no base is anchored). Lease renewal
	// covers it alongside Key — the base lives on donors too.
	BaseKey    string
	Crossings  uint64
	LastAccess uint64
	SwapOuts   uint64
	SwapIns    uint64
}

// Info snapshots one cluster.
func (m *Manager) Info(id ClusterID) (ClusterInfo, error) {
	ts := m.tab(id)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cs, err := ts.state(id)
	if err != nil {
		return ClusterInfo{}, err
	}
	return m.infoOf(cs), nil
}

// InfoAll snapshots every cluster in id order.
func (m *Manager) InfoAll() []ClusterInfo {
	var out []ClusterInfo
	for _, ts := range m.tabs {
		ts.mu.Lock()
		for _, cs := range ts.clusters {
			out = append(out, m.infoOf(cs))
		}
		ts.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// infoOf snapshots one record; the caller holds its table-shard lock.
func (m *Manager) infoOf(cs *clusterState) ClusterInfo {
	info := ClusterInfo{
		ID:           cs.id,
		Objects:      len(cs.objects),
		Swapped:      cs.swapped,
		Busy:         cs.busy,
		Device:       cs.primaryDevice(),
		Devices:      append([]string(nil), cs.devices...),
		Key:          cs.key,
		PayloadBytes: cs.payloadBytes,
		Format:       cs.format,
		BaseKey:      cs.base.key,
		Crossings:    cs.crossings,
		LastAccess:   cs.lastAccess,
		SwapOuts:     cs.swapOuts,
		SwapIns:      cs.swapIns,
	}
	if !cs.swapped {
		for id := range cs.objects {
			if o, err := m.rt.h.Get(id); err == nil {
				info.ResidentBytes += o.Size()
			}
		}
	}
	return info
}

// VictimStrategy orders candidate clusters for eviction.
type VictimStrategy uint8

const (
	// VictimColdest evicts the least-recently crossed cluster (LRU over
	// boundary traversals).
	VictimColdest VictimStrategy = iota + 1
	// VictimLargest evicts the cluster holding the most resident bytes.
	VictimLargest
	// VictimLeastUsed evicts the least-frequently crossed cluster (LFU).
	VictimLeastUsed
)

// String names the strategy (used by policy XML).
func (s VictimStrategy) String() string {
	switch s {
	case VictimColdest:
		return "coldest"
	case VictimLargest:
		return "largest"
	case VictimLeastUsed:
		return "least-used"
	default:
		return "strategy?"
	}
}

// VictimStrategyFromString parses policy XML strategy names.
func VictimStrategyFromString(s string) (VictimStrategy, error) {
	switch s {
	case "coldest":
		return VictimColdest, nil
	case "largest":
		return VictimLargest, nil
	case "least-used":
		return VictimLeastUsed, nil
	default:
		return 0, fmt.Errorf("core: unknown victim strategy %q", s)
	}
}

// SelectVictim picks the next loaded, non-empty, non-root cluster to swap out
// under the given strategy. ok is false when no cluster is eligible.
func (m *Manager) SelectVictim(strategy VictimStrategy) (ClusterID, bool) {
	infos := m.InfoAll()
	var best *ClusterInfo
	better := func(a, b *ClusterInfo) bool {
		switch strategy {
		case VictimLargest:
			if a.ResidentBytes != b.ResidentBytes {
				return a.ResidentBytes > b.ResidentBytes
			}
		case VictimLeastUsed:
			if a.Crossings != b.Crossings {
				return a.Crossings < b.Crossings
			}
		default: // VictimColdest
			if a.LastAccess != b.LastAccess {
				return a.LastAccess < b.LastAccess
			}
		}
		return a.ID < b.ID
	}
	for i := range infos {
		info := &infos[i]
		if info.ID == RootCluster || info.Swapped || info.Busy || info.Objects == 0 {
			continue
		}
		if best == nil || better(info, best) {
			best = info
		}
	}
	if best == nil {
		return 0, false
	}
	return best.ID, true
}
