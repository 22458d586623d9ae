package server

import (
	"container/list"
	"sync"
)

// resultCache is a bounded LRU of marshaled query responses. One instance
// belongs to exactly one Snapshot (epoch), so entries never go stale — the
// invalidation rule is structural: a new epoch carries a new, empty cache
// and the old one becomes unreachable with its snapshot.
//
// A mutex-guarded LRU is deliberately simple: the cache exists to save
// recomputing Eq.-6 scans and scheduling plans, both of which dwarf a lock
// handoff.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheItem struct {
	key string
	val []byte
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached value for key, promoting it to most-recent.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put inserts key→val, evicting the least-recently-used entry when full.
func (c *resultCache) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheItem).val = val
		return
	}
	el := c.ll.PushFront(&cacheItem{key: key, val: val})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
	}
}
