package serve

import (
	"container/list"
	"math"
)

// refCache is the test-only reference for Cache: the straightforward
// sharded LRU (a Go map per shard plus a container/list recency list) that
// Cache replaced. It shares Cache's shard choice and per-shard capacities,
// and keys its maps by the bounds' bit patterns, so it states the contract
// Cache must meet: exact per-shard LRU over bit-for-bit keys. The
// differential tests pin Cache to it op by op, from one goroutine.
type refCache struct {
	shards    [cacheShards]refShard
	evictions uint64
}

type refShard struct {
	items map[[4]uint64]*list.Element
	order *list.List // front = most recently used
	cap   int
}

type refEntry struct {
	key [4]uint64
	val float64
}

// newRefCache spreads capacity as NewCache documents: shard i holds
// capacity/16 answers, plus one when i < capacity%16.
func newRefCache(capacity int) *refCache {
	c := &refCache{}
	for i := range c.shards {
		n := max(capacity, 0) / cacheShards
		if i < max(capacity, 0)%cacheShards {
			n++
		}
		c.shards[i] = refShard{items: map[[4]uint64]*list.Element{}, order: list.New(), cap: n}
	}
	return c
}

func refKey(k queryKey) [4]uint64 {
	return [4]uint64{math.Float64bits(k[0]), math.Float64bits(k[1]), math.Float64bits(k[2]), math.Float64bits(k[3])}
}

func (c *refCache) Get(k queryKey) (float64, bool) {
	s := &c.shards[hashKey(k)&(cacheShards-1)]
	el, ok := s.items[refKey(k)]
	if !ok {
		return 0, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*refEntry).val, true
}

func (c *refCache) Put(k queryKey, v float64) {
	s := &c.shards[hashKey(k)&(cacheShards-1)]
	if s.cap == 0 {
		return
	}
	bk := refKey(k)
	if el, ok := s.items[bk]; ok {
		el.Value.(*refEntry).val = v
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		delete(s.items, oldest.Value.(*refEntry).key)
		s.order.Remove(oldest)
		c.evictions++
	}
	s.items[bk] = s.order.PushFront(&refEntry{key: bk, val: v})
}

func (c *refCache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].order.Len()
	}
	return n
}
