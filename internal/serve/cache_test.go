package serve

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"psd"
)

func key(a, b, c, d float64) queryKey { return queryKey{a, b, c, d} }

func shardOf(k queryKey) int { return int(hashKey(k) & (cacheShards - 1)) }

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64)
	if _, ok := c.Get(key(0, 0, 1, 1)); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put(key(0, 0, 1, 1), 42)
	if v, ok := c.Get(key(0, 0, 1, 1)); !ok || v != 42 {
		t.Fatalf("got (%v,%v), want (42,true)", v, ok)
	}
	// Overwrite updates the value in place.
	c.Put(key(0, 0, 1, 1), 43)
	if v, _ := c.Get(key(0, 0, 1, 1)); v != 43 {
		t.Fatalf("got %v, want 43", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheBounded(t *testing.T) {
	for _, capacity := range []int{1, 15, 16, 17, 100, 65536} {
		c := NewCache(capacity)
		for i := 0; i < 10*capacity; i++ {
			c.Put(key(float64(i), 0, float64(i)+1, 1), float64(i))
		}
		if n := c.Len(); n > capacity {
			t.Errorf("cache grew to %d entries, capacity %d", n, capacity)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// A capacity-16 cache has one slot per shard; within a shard the oldest
	// entry goes first. Fill one slot, touch it, add a colliding entry, and
	// confirm the recently used one survived. To guarantee a collision we
	// find two keys in the same shard.
	c := NewCache(cacheShards)
	a := key(1, 2, 3, 4)
	shard := shardOf(a)
	var b queryKey
	for i := 5.0; ; i++ {
		b = key(i, i, i+1, i+1)
		if shardOf(b) == shard && b != a {
			break
		}
	}
	c.Put(a, 1)
	c.Get(a) // a is now most recently used in its shard
	c.Put(b, 2)
	if _, ok := c.Get(b); !ok {
		t.Fatal("fresh entry b evicted")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	c.Put(key(0, 0, 1, 1), 1)
	if _, ok := c.Get(key(0, 0, 1, 1)); ok {
		t.Fatal("nil cache should always miss")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache should be empty")
	}
	if NewCache(0) != nil {
		t.Fatal("NewCache(0) should disable caching")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(float64(i%100), float64(g), 1, 1)
				if v, ok := c.Get(k); ok && v != float64(i%100) {
					t.Errorf("corrupted value %v for %v", v, k)
					return
				}
				c.Put(k, float64(i%100))
			}
		}(g)
	}
	wg.Wait()
}

// indexed counts the used index slots over all shards: the entries a
// lookup can reach, whatever Len says.
func indexed(c *Cache) int {
	n := 0
	for i := range c.shards {
		for _, e := range c.shards[i].index {
			if e != 0 {
				n++
			}
		}
	}
	return n
}

// TestCacheNaNKey pins bitwise keys: a NaN bound matches itself, so
// repeated Puts of one NaN rectangle update one entry, and many NaN
// rectangles stay within capacity.
func TestCacheNaNKey(t *testing.T) {
	c := NewCache(16)
	nan := key(math.NaN(), 0, 1, 1)
	for i := 0; i < 10000; i++ {
		c.Put(nan, float64(i))
	}
	if n := indexed(c); n > 16 {
		t.Fatalf("index holds %d entries after re-putting one NaN key, want <= 16", n)
	}
	if v, ok := c.Get(nan); !ok || v != 9999 {
		t.Fatalf("NaN key: got (%v,%v), want (9999,true)", v, ok)
	}
	for i := 0; i < 10000; i++ {
		c.Put(key(math.NaN(), 0, float64(i), 1), float64(i))
	}
	if n, l := indexed(c), c.Len(); n > 16 || n != l {
		t.Fatalf("index holds %d entries, Len %d, after 10000 NaN keys; want equal and <= 16", n, l)
	}
	if _, ok := c.Get(key(math.Copysign(0, -1), 0, 1, 1)); ok {
		t.Fatal("-0 bound hit a +0 or NaN entry")
	}
}

// checkCacheInvariants walks every shard: the recency list visits each
// slab entry once in both directions, the index reaches exactly the slab
// entries, stays at most half full, and no shard exceeds its capacity.
func checkCacheInvariants(t *testing.T, c *Cache) {
	t.Helper()
	for si := range c.shards {
		s := &c.shards[si]
		if len(s.slab) > int(s.cap) {
			t.Fatalf("shard %d holds %d entries, cap %d", si, len(s.slab), s.cap)
		}
		n, prev := 0, int32(-1)
		for i := s.head; i >= 0; i = s.slab[i].next {
			if s.slab[i].prev != prev || n >= len(s.slab) {
				t.Fatalf("shard %d: broken recency list at %d", si, i)
			}
			prev = i
			n++
		}
		if n != len(s.slab) || s.tail != prev {
			t.Fatalf("shard %d: list covers %d of %d entries, tail %d want %d", si, n, len(s.slab), s.tail, prev)
		}
		used := 0
		for _, e := range s.index {
			if e == 0 {
				continue
			}
			used++
			k := s.slab[e-1].key
			if hashKey(k)&(cacheShards-1) != uint64(si) || s.find(hashKey(k), &k) != e-1 {
				t.Fatalf("shard %d: index slot for entry %d unreachable", si, e-1)
			}
		}
		if used != len(s.slab) || 2*used > len(s.index) {
			t.Fatalf("shard %d: %d index entries in %d slots for %d answers", si, used, len(s.index), len(s.slab))
		}
	}
}

// fuzzKey maps a byte to one of 256 keys, among them the bit-level edge
// cases: +0 and -0 differ, two NaN payloads differ, each matches itself.
func fuzzKey(b byte) queryKey {
	switch b {
	case 0:
		return key(0, 0, 1, 1)
	case 1:
		return key(math.Copysign(0, -1), 0, 1, 1)
	case 2:
		return key(math.NaN(), 0, 1, 1)
	case 3:
		return key(math.Float64frombits(0x7ff8000000000001), 0, 1, 1)
	case 4:
		return key(math.Inf(1), 0, 1, 1)
	}
	f := float64(b)
	return key(f, f/2, f+1, f/2+1)
}

// FuzzCacheLRU drives Cache and the reference LRU with one op sequence:
// the first byte picks the capacity, then each byte pair is an op (even:
// Get, odd: Put) and a key. Every Get must agree on hit and value, and at
// the end Len and Evictions must agree and the cache's structure hold.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 3, 0, 3})
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{64, 4096} {
		for capIdx := range 6 {
			ops := make([]byte, n)
			for i := range ops {
				ops[i] = byte(rng.Uint32())
			}
			ops[0] = byte(capIdx)
			f.Add(ops)
		}
	}
	capacities := []int{1, 5, 16, 17, 100, 200}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := capacities[int(ops[0])%len(capacities)]
		c, ref := NewCache(capacity), newRefCache(capacity)
		for j := 1; j+1 < len(ops); j += 2 {
			k := fuzzKey(ops[j+1])
			if ops[j]&1 == 1 {
				c.Put(k, float64(j))
				ref.Put(k, float64(j))
				continue
			}
			v, ok := c.Get(k)
			rv, rok := ref.Get(k)
			if ok != rok || v != rv {
				t.Fatalf("op %d Get(%v) = (%v,%v), reference (%v,%v)", j, k, v, ok, rv, rok)
			}
		}
		if c.Len() != ref.Len() || c.Evictions() != ref.evictions {
			t.Fatalf("Len %d Evictions %d, reference %d %d", c.Len(), c.Evictions(), ref.Len(), ref.evictions)
		}
		checkCacheInvariants(t, c)
	})
}

// TestCacheMatchesReference is the differential check at scale: shards of
// ~60 answers whose indexes rebuild several times, over a skewed stream
// with both hits and a steady eviction rate.
func TestCacheMatchesReference(t *testing.T) {
	const capacity, keys = 1000, 3000
	c, ref := NewCache(capacity), newRefCache(capacity)
	rng := rand.New(rand.NewPCG(3, 4))
	zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
	hits := 0
	for j := 0; j < 200_000; j++ {
		id := float64(zipf.Uint64())
		k := key(id, -id, id+0.5, 7)
		v, ok := c.Get(k)
		rv, rok := ref.Get(k)
		if ok != rok || v != rv {
			t.Fatalf("op %d Get(%v) = (%v,%v), reference (%v,%v)", j, k, v, ok, rv, rok)
		}
		if ok {
			hits++
			continue
		}
		c.Put(k, float64(j))
		ref.Put(k, float64(j))
	}
	if c.Len() != ref.Len() || c.Evictions() != ref.evictions {
		t.Fatalf("Len %d Evictions %d, reference %d %d", c.Len(), c.Evictions(), ref.Len(), ref.evictions)
	}
	if hits == 0 || c.Evictions() == 0 {
		t.Fatalf("stream made %d hits and %d evictions, want both > 0", hits, c.Evictions())
	}
	checkCacheInvariants(t, c)
}

// heapGrowth returns how much live heap f leaves behind, measured after
// full collections on both sides. The baseline takes two: the first can
// still free garbage left over from before the test started.
func heapGrowth(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestCacheFootprint pins the memory a cache costs: an idle one is its
// shard headers, and a full one pays its slab entries and index slots.
func TestCacheFootprint(t *testing.T) {
	const capacity = 1 << 16
	// Many empty caches at once, so other goroutines' heap noise is
	// divided down below the per-cache figure.
	idle := make([]*Cache, 64)
	empty := heapGrowth(func() {
		for i := range idle {
			idle[i] = NewCache(capacity)
		}
	}) / int64(len(idle))
	if empty >= 16<<10 {
		t.Errorf("empty NewCache(%d) holds %d B, want < 16 KiB", capacity, empty)
	}
	c := idle[0]
	idle = nil
	b := heapGrowth(func() {
		for i := 0; i < 4*capacity; i++ {
			c.Put(key(float64(i), 0, float64(i)+1, 1), float64(i))
		}
	})
	if c.Len() != capacity {
		t.Fatalf("Len = %d after %d distinct Puts, want %d", c.Len(), 4*capacity, capacity)
	}
	perAnswer := float64(b) / capacity
	if perAnswer > 80 {
		t.Errorf("full cache holds %.1f B per answer, want <= 80", perAnswer)
	}
	t.Logf("empty: %d B; full: %.1f B per answer", empty, perAnswer)
	runtime.KeepAlive(c)
}

// TestColdBatchThroughFullCacheAllocationFree pins the evicting path: a
// batch of never-seen rectangles through a full cache, one worker, inserts
// every answer by recycling LRU entries and allocates nothing.
func TestColdBatchThroughFullCacheAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tree := buildTree(t, 64)
	const capacity = 1024
	rel, err := NewRegistry(capacity).Register("r", "test", bytes.NewReader(releaseBytes(t, tree)))
	if err != nil {
		t.Fatal(err)
	}
	base := shardedBatch(256)
	qs := make([]psd.Rect, len(base))
	vals := make([]float64, len(qs))
	ctx := context.Background()
	round := 0
	cold := func() {
		round++
		for i, q := range base {
			q.Hi.X += float64(round) * 1e-6
			qs[i] = q
		}
		if hits, _, err := rel.CountBatchIntoCtx(ctx, vals, qs, 1); err != nil || hits != 0 {
			t.Fatalf("cold batch: hits %d, err %v; want 0, nil", hits, err)
		}
	}
	for rel.cache.Len() < capacity {
		cold()
	}
	evicted := rel.cache.Evictions()
	if avg := testing.AllocsPerRun(20, cold); avg != 0 {
		t.Fatalf("cold batch through a full cache allocates %.1f/op, want 0", avg)
	}
	if got := rel.cache.Evictions() - evicted; got != 21*uint64(len(qs)) {
		t.Fatalf("%d evictions over 21 cold batches of %d, want every insert to evict", got, len(qs))
	}
}
