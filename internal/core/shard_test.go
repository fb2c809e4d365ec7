package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/store"
)

func TestWithShards(t *testing.T) {
	if got := NewRuntime(heap.New(0), heap.NewRegistry()).Shards(); got != DefaultShards {
		t.Errorf("default shard count = %d, want %d", got, DefaultShards)
	}
	if got := NewRuntime(heap.New(0), heap.NewRegistry(), WithShards(3)).Shards(); got != 3 {
		t.Errorf("WithShards(3) = %d shards", got)
	}
	if got := NewRuntime(heap.New(0), heap.NewRegistry(), WithShards(0)).Shards(); got != DefaultShards {
		t.Errorf("WithShards(0) = %d shards, want default %d", got, DefaultShards)
	}
}

func TestShardIndexForBoundsAndSpread(t *testing.T) {
	for n := 1; n <= 16; n++ {
		hit := make(map[int]bool)
		for id := ClusterID(0); id < 1024; id++ {
			s := shardIndexFor(id, n)
			if s < 0 || s >= n {
				t.Fatalf("shardIndexFor(%d, %d) = %d out of range", id, n, s)
			}
			if s != shardIndexFor(id, n) {
				t.Fatalf("shardIndexFor(%d, %d) unstable", id, n)
			}
			hit[s] = true
		}
		if len(hit) != n {
			t.Errorf("n=%d: only %d of %d shards hit by 1024 consecutive ids", n, len(hit), n)
		}
	}
}

func TestInterleaveByShard(t *testing.T) {
	rt := NewRuntime(heap.New(0), heap.NewRegistry(), WithShards(4))
	ids := make([]ClusterID, 64)
	for i := range ids {
		ids[i] = ClusterID(i + 1)
	}
	order := rt.interleaveByShard(ids)
	if len(order) != len(ids) {
		t.Fatalf("interleave emitted %d indexes, want %d", len(order), len(ids))
	}
	seen := make(map[int]bool, len(order))
	lastPos := make(map[int]int) // shard -> position of its previous emission
	prevIdx := make(map[int][]int)
	for pos, i := range order {
		if i < 0 || i >= len(ids) || seen[i] {
			t.Fatalf("interleave index %d at position %d invalid or repeated", i, pos)
		}
		seen[i] = true
		s := rt.shardIndex(ids[i])
		prevIdx[s] = append(prevIdx[s], i)
		lastPos[s] = pos
	}
	// Per-shard relative order is preserved (workers drain each shard FIFO).
	for s, idxs := range prevIdx {
		for j := 1; j < len(idxs); j++ {
			if idxs[j] < idxs[j-1] {
				t.Fatalf("shard %d emission order %v not ascending", s, idxs)
			}
		}
	}
	// With a full round-robin, no shard may finish before every other shard
	// has emitted at least once per full cycle: the first len(prevIdx)
	// positions must all land on distinct shards.
	firstCycle := make(map[int]bool)
	for _, i := range order[:len(prevIdx)] {
		firstCycle[rt.shardIndex(ids[i])] = true
	}
	if len(firstCycle) != len(prevIdx) {
		t.Errorf("first cycle touched %d shards, want %d", len(firstCycle), len(prevIdx))
	}
}

func TestShardEvictionsBookkeeping(t *testing.T) {
	rt := NewRuntime(heap.New(0), heap.NewRegistry())
	if got := rt.ShardEvictions(); len(got) != 0 {
		t.Fatalf("idle runtime reports evictions: %+v", got)
	}
	victim := ClusterID(7)
	release := rt.beginShardEvict(victim)
	nested := rt.beginShardEvict(victim)
	got := rt.ShardEvictions()
	if len(got) != 1 || got[0].Shard != rt.shardIndex(victim) || got[0].Since.IsZero() {
		t.Fatalf("in-flight eviction report = %+v, want shard %d", got, rt.shardIndex(victim))
	}
	nested()
	if got := rt.ShardEvictions(); len(got) != 1 {
		t.Fatalf("nested release cleared the mark early: %+v", got)
	}
	release()
	if got := rt.ShardEvictions(); len(got) != 0 {
		t.Fatalf("release left evictions behind: %+v", got)
	}
}

// A single-shard runtime is the degenerate configuration (one global swap
// lock, as before sharding) and must behave identically.
func TestSingleShardRoundTrip(t *testing.T) {
	h := heap.New(0)
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("pda-neighbor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(h, heap.NewRegistry(), WithStores(devices), WithShards(1))
	node := newNodeClass()
	rt.MustRegisterClass(node)
	c := rt.Manager().NewCluster()
	o, err := rt.NewObject(node, c)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("tag", heap.Int(42))
	if err := rt.SetRoot("head", o.RefTo()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(c); err != nil {
		t.Fatal(err)
	}
	rt.Collect()
	if _, err := rt.SwapIn(c); err != nil {
		t.Fatal(err)
	}
	v, err := rt.Field(o.RefTo(), "tag")
	if err != nil {
		t.Fatal(err)
	}
	if tag, _ := v.Int(); tag != 42 {
		t.Fatalf("tag after round trip = %d, want 42", tag)
	}
	if errs := rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestConcurrentCollectAndSwapStorm runs Collect concurrently with
// SwapOutMany and SwapIn across many clusters (the satellite's -race test):
// no deadlock, no lost objects, and the application-visible graph survives
// intact.
func TestConcurrentCollectAndSwapStorm(t *testing.T) {
	f := newFixture(t, 0)
	_, clusters := f.buildList(t, 256, 4, 16)
	want := f.snapshotTags(t)

	skippable := func(err error) bool {
		return errors.Is(err, ErrClusterBusy) || errors.Is(err, ErrClusterLoaded) ||
			errors.Is(err, ErrClusterSwapped) || errors.Is(err, ErrClusterEmpty)
	}

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := f.rt.SwapOutMany(clusters, 4); err != nil && !skippable(err) {
				t.Errorf("swap-out many: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rounds*len(clusters)/4; i++ {
			c := clusters[rng.Intn(len(clusters))]
			if _, err := f.rt.SwapIn(c); err != nil && !skippable(err) {
				t.Errorf("swap-in %d: %v", c, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.rt.Collect()
		}
	}()
	wg.Wait()

	// Quiesce: everything back in, nothing lost.
	for _, c := range clusters {
		if _, err := f.rt.SwapIn(c); err != nil && !skippable(err) {
			t.Fatalf("final swap-in %d: %v", c, err)
		}
	}
	if errs := f.rt.Manager().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after storm: %v", errs)
	}
	got := f.snapshotTags(t)
	if len(got) != len(want) {
		t.Fatalf("list length after storm = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tag[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLockPairAllocatesNothing(t *testing.T) {
	m := NewRuntime(heap.New(0), heap.NewRegistry(), WithShards(4)).Manager()
	a := ClusterID(1)
	b := a + 1
	for shardIndexFor(b, len(m.tabs)) == shardIndexFor(a, len(m.tabs)) {
		b++
	}
	for _, pair := range [][2]ClusterID{{a, b}, {b, a}, {a, a}} {
		allocs := testing.AllocsPerRun(100, func() {
			m.lockPair(pair[0], pair[1]).unlock()
		})
		if allocs != 0 {
			t.Errorf("lockPair(%d, %d) + unlock allocates %v objects, want 0", pair[0], pair[1], allocs)
		}
	}
	// Both shards are free again: a second acquisition must not block.
	m.lockPair(a, b).unlock()
}
