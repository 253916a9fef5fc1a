package serve

import (
	"math"
	"sync"
	"sync/atomic"
)

// queryKey identifies a range query for caching: the four rectangle bounds
// as a fixed-width binary key (4×float64, bit-for-bit — no per-lookup
// formatting or string allocation). Queries against a fixed release are
// deterministic post-processing of the published counts (Section 4.1 — no
// budget is spent at query time), so caching answers is semantically free:
// a hit returns exactly what recomputation would.
type queryKey [4]float64

// sameKey compares two keys bit for bit, so a NaN bound matches itself and
// -0 and +0 are different keys, as they hash.
func sameKey(a, b *queryKey) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1]) &&
		math.Float64bits(a[2]) == math.Float64bits(b[2]) &&
		math.Float64bits(a[3]) == math.Float64bits(b[3])
}

// cacheShards is the fixed shard count of a Cache; a power of two so shard
// selection is a mask. 16 shards keep lock contention negligible for the
// worker counts this library targets while staying cheap for tiny caches.
const cacheShards = 16

// shardBits is log2(cacheShards): the low hash bits that pick the shard.
// A shard's index takes its slot bits from above them.
const shardBits = 4

// minIndex is the slot count of a shard's index when its first answer
// arrives; a power of two so probing wraps with a mask.
const minIndex = 16

// maxShardCap bounds a shard's answers so slab positions fit the int32
// links and index slots.
const maxShardCap = 1 << 30

// Cache is a bounded, sharded LRU map from query rectangles to answers.
// Each shard holds its own lock, so concurrent readers on different shards
// never contend. A nil *Cache is valid and always misses, which is how
// caching is disabled. Hit/miss accounting lives in the per-release stats,
// not here, so the hot path pays no extra atomics.
//
// Memory grows with the answers held: an empty cache is its shard headers
// (~1 KiB), and each held answer costs one 48-byte slab entry plus two to
// four 4-byte index slots. Nothing a shard holds contains a pointer, so
// the garbage collector never scans a cache's contents.
type Cache struct {
	shards [cacheShards]cacheShard
	// evictions counts answers displaced by capacity pressure — the signal
	// that the cache is undersized for the live query mix. Surfaced in the
	// /stats endpoint.
	evictions atomic.Uint64
}

// cacheShard is one exact LRU. Its answers live in slab, which grows on
// demand up to cap and then recycles the least recently used entry in
// place, so a steady-state Put allocates nothing. index is an
// open-addressing hash table (linear probing, backward-shift deletion)
// holding slab position + 1 per used slot, 0 for empty; it is kept at most
// half full, so probes stay short and always reach an empty slot. The
// recency list threads the slab through prev/next positions, from head
// (most recently used) to tail; -1 ends it.
type cacheShard struct {
	mu         sync.Mutex
	slab       []cacheEntry
	index      []int32
	head, tail int32
	cap        int32
}

type cacheEntry struct {
	key        queryKey
	val        float64
	prev, next int32
}

// NewCache returns a cache holding at most capacity answers in total:
// shard i may hold capacity/16 answers, plus one when i < capacity%16. A
// shard with no room never caches. Capacity <= 0 returns nil (caching off).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	c := &Cache{}
	for i := range c.shards {
		n := capacity / cacheShards
		if i < capacity%cacheShards {
			n++
		}
		c.shards[i] = cacheShard{head: -1, tail: -1, cap: int32(min(n, maxShardCap))}
	}
	return c
}

// hashKey mixes the key's bit patterns (splitmix64-style rounds plus a
// final avalanche, so every bound reaches every output bit). The low
// shardBits bits pick the shard and the bits above them the index slot.
// The inputs are not adversarial — worst case a hot shard — so a fast
// non-cryptographic mix is fine.
func hashKey(k queryKey) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, f := range k {
		h ^= math.Float64bits(f)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// Get returns the cached answer for k, marking it most recently used.
func (c *Cache) Get(k queryKey) (float64, bool) {
	if c == nil {
		return 0, false
	}
	h := hashKey(k)
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	i := int32(-1)
	if s.index != nil {
		i = s.find(h, &k)
	}
	var v float64
	if i >= 0 {
		v = s.slab[i].val
		s.toFront(i)
	}
	s.mu.Unlock()
	return v, i >= 0
}

// Put stores the answer for k, evicting the shard's least recently used
// entry when full.
func (c *Cache) Put(k queryKey, v float64) {
	if c == nil {
		return
	}
	h := hashKey(k)
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	evicted := s.put(h, k, v)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// put is Put within the shard; it reports whether an answer was evicted.
func (s *cacheShard) put(h uint64, k queryKey, v float64) (evicted bool) {
	if s.cap == 0 {
		return false
	}
	if s.index == nil {
		s.index = make([]int32, minIndex)
	}
	if i := s.find(h, &k); i >= 0 {
		s.slab[i].val = v
		s.toFront(i)
		return false
	}
	if len(s.slab) < int(s.cap) {
		s.add(h, k, v)
		return false
	}
	// Full: recycle the least recently used entry's slab position.
	i := s.tail
	s.unlink(i)
	s.unindex(hashKey(s.slab[i].key), i)
	s.slab[i].key, s.slab[i].val = k, v
	s.insert(h, i)
	s.pushFront(i)
	return true
}

// find returns k's slab position, or -1 when k is absent.
func (s *cacheShard) find(h uint64, k *queryKey) int32 {
	mask := uint64(len(s.index) - 1)
	for p := h >> shardBits & mask; ; p = (p + 1) & mask {
		e := s.index[p]
		if e == 0 {
			return -1
		}
		if sameKey(&s.slab[e-1].key, k) {
			return e - 1
		}
	}
}

// add appends a new most recently used entry for the absent key k,
// growing the slab (never beyond cap) and rebuilding the index at twice
// its size once it would pass half full.
func (s *cacheShard) add(h uint64, k queryKey, v float64) {
	if len(s.slab) == cap(s.slab) {
		grown := make([]cacheEntry, len(s.slab), min(max(2*len(s.slab), 8), int(s.cap)))
		copy(grown, s.slab)
		s.slab = grown
	}
	i := int32(len(s.slab))
	s.slab = append(s.slab, cacheEntry{key: k, val: v})
	if 2*len(s.slab) > len(s.index) {
		s.index = make([]int32, 2*len(s.index))
		for j := range s.slab[:i] {
			s.insert(hashKey(s.slab[j].key), int32(j))
		}
	}
	s.insert(h, i)
	s.pushFront(i)
}

// insert puts slab position i, whose key hashes to h and is absent from
// the index, at the first empty slot of its probe sequence.
func (s *cacheShard) insert(h uint64, i int32) {
	mask := uint64(len(s.index) - 1)
	p := h >> shardBits & mask
	for s.index[p] != 0 {
		p = (p + 1) & mask
	}
	s.index[p] = i + 1
}

// unindex removes slab position i, whose key hashes to h, from the index.
// Backward-shift deletion: each later entry of the probe run moves into
// the hole when the hole lies on its own probe path, so no tombstones are
// left and lookups still stop at the first empty slot.
func (s *cacheShard) unindex(h uint64, i int32) {
	mask := uint64(len(s.index) - 1)
	hole := h >> shardBits & mask
	for s.index[hole] != i+1 {
		hole = (hole + 1) & mask
	}
	for p := (hole + 1) & mask; s.index[p] != 0; p = (p + 1) & mask {
		home := hashKey(s.slab[s.index[p]-1].key) >> shardBits & mask
		if (p-home)&mask >= (p-hole)&mask {
			s.index[hole] = s.index[p]
			hole = p
		}
	}
	s.index[hole] = 0
}

// unlink takes slab position i out of the recency list.
func (s *cacheShard) unlink(i int32) {
	e := &s.slab[i]
	if e.prev >= 0 {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront makes slab position i, not on the list, its most recently used.
func (s *cacheShard) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slab[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// toFront marks slab position i, on the list, most recently used.
func (s *cacheShard) toFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// Evictions returns the total number of answers evicted to make room.
func (c *Cache) Evictions() uint64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// Len returns the number of cached answers.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.slab)
		s.mu.Unlock()
	}
	return n
}
