package server

import (
	"container/list"
	"sync"
)

// resultCache is a bounded, content-addressed LRU cache of completed
// job results, keyed by JobSpec.Hash. The simulator is deterministic,
// so a hash hit can be returned without re-running anything. The
// cache is bounded twice over: by entry count and by total payload
// bytes — a few thousand large matrix results must not exhaust the
// process even when the entry cap alone would admit them.
//
// Each result is stored once, as an immutable string. Jobs served from
// the cache hold that same string (Load, and Put's return value), so a
// cache hit costs no copy of its result, and a result outlives its
// cache entry for as long as a job still holds it.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64 // <= 0: no byte bound
	bytes      int64
	entries    map[string]*list.Element
	order      *list.List // front = most recently used
}

type cacheEntry struct {
	hash   string
	result string
}

// newResultCache builds a cache bounded to maxEntries results (min 1)
// and maxBytes total payload (<= 0 disables the byte bound). A single
// result larger than maxBytes is still admitted — the bound then
// holds it alone.
func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
	}
}

// Load returns the cached result for hash, if present, and marks the
// entry recently used. The string is shared, not copied: it is
// immutable, so every holder may keep it.
func (c *resultCache) Load(hash string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return "", false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// Get returns a copy of the cached result bytes for hash, if present,
// and marks the entry recently used, for callers that decode. Callers
// own the returned slice: handing out shared bytes would let one
// caller's mutation corrupt every later hit (and, with peer fill,
// other nodes).
func (c *resultCache) Get(hash string) ([]byte, bool) {
	r, ok := c.Load(hash)
	if !ok {
		return nil, false
	}
	return []byte(r), true
}

// Put stores a copy of result, evicting least recently used entries
// while either bound is exceeded. It returns the stored string, for a
// job to share with the cache.
func (c *resultCache) Put(hash string, result []byte) string {
	r := string(result)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(r)) - int64(len(e.result))
		e.result = r
		c.order.MoveToFront(el)
	} else {
		c.entries[hash] = c.order.PushFront(&cacheEntry{hash: hash, result: r})
		c.bytes += int64(len(r))
	}
	for c.order.Len() > 1 &&
		(c.order.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		last := c.order.Back()
		c.order.Remove(last)
		e := last.Value.(*cacheEntry)
		c.bytes -= int64(len(e.result))
		delete(c.entries, e.hash)
	}
	return r
}

// Len returns the number of cached results.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the total cached payload size.
func (c *resultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns entry count and payload bytes in one lock.
func (c *resultCache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
