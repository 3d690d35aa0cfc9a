package server

import (
	"container/list"
	"fmt"
	"sync"
)

// resultCache is a small LRU over complete (never degraded) recommendation
// answers, kept as the response that served them, keyed by
// "viewVersion\x00clipID\x00topK". Keys embed the version of the engine view
// a result was computed from, so mutations never need to purge anything:
// a published mutation bumps the view version, new queries key under the new
// version and miss once, and entries of lapsed views age out of the LRU tail
// as fresh results displace them.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	at  map[string]*list.Element

	hits, misses int64
}

// cacheKey builds the version-qualified lookup key for one stored-clip
// recommendation.
func cacheKey(version uint64, clipID string, topK int) string {
	return fmt.Sprintf("%d\x00%s\x00%d", version, clipID, topK)
}

type cacheItem struct {
	key  string
	resp RecommendResponse
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 128
	}
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		at:  make(map[string]*list.Element),
	}
}

func (c *resultCache) get(key string) (RecommendResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.at[key]
	if !ok {
		c.misses++
		return RecommendResponse{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheItem).resp, true
}

func (c *resultCache) put(key string, resp RecommendResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.at[key]; ok {
		el.Value.(*cacheItem).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.at[key] = c.ll.PushFront(&cacheItem{key: key, resp: resp})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.at, oldest.Value.(*cacheItem).key)
	}
}

func (c *resultCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
