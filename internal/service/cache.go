package service

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// resultCache is the in-memory tier: a thread-safe LRU bounded both by
// entry count and by accounted outcome bytes (the size of the entry's
// canonical JSON encoding — the same bytes the disk tier persists), so
// a flood of large outcomes evicts earlier instead of growing the heap
// past the operator's bound.
type resultCache struct {
	mu       sync.Mutex
	cap      int   // max entries; <= 0 disables the tier
	maxBytes int64 // max accounted bytes; <= 0 means unbounded by bytes
	bytes    int64
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
}

type cacheEntry struct {
	key     string
	outcome *Outcome
	size    int64
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached outcome for key and marks it recently used.
func (c *resultCache) get(key string) (*Outcome, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).outcome, true
}

// put stores an outcome of the given accounted size, evicting least
// recently used entries while either bound (entries or bytes) is
// exceeded. The stored outcome must never be mutated afterwards.
func (c *resultCache) put(key string, o *Outcome, size int64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.outcome, e.size = o, size
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, outcome: o, size: size})
		c.bytes += size
	}
	for c.order.Len() > 1 && (c.order.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		c.evictOldestLocked()
	}
	// A single entry larger than maxBytes is kept: evicting the only
	// entry would make oversized outcomes uncacheable, which costs more
	// memory (repeated runs hold the graph) than it saves.
}

func (c *resultCache) evictOldestLocked() {
	last := c.order.Back()
	e := last.Value.(*cacheEntry)
	c.order.Remove(last)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// len returns the number of live entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size returns the accounted bytes of the live entries.
func (c *resultCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// tieredCache is the Manager's result cache: a content-addressed map from
// request keys to finished Outcomes. Because every run is deterministic
// in its key (the engine is a pure function of graph, options, and seed;
// see DESIGN.md §7), a hit can skip the whole CONGEST simulation and
// replay the stored outcome. It is a write-through pair of the in-memory
// LRU and an optional disk tier: reads try memory first and promote disk
// hits; writes land in both, so a restart only loses the memory tier and
// the disk tier restores the hit rate (DESIGN.md §11). It is safe for
// concurrent use, and stored outcomes must never be mutated after Put.
type tieredCache struct {
	mem      *resultCache
	disk     *diskCache // nil when no cache directory is configured
	diskHits *atomic.Int64
}

func newTieredCache(mem *resultCache, disk *diskCache, diskHits *atomic.Int64) *tieredCache {
	return &tieredCache{mem: mem, disk: disk, diskHits: diskHits}
}

// Get returns the cached outcome for key: memory first, then the disk
// tier (a disk hit is decoded, promoted into memory, and counted).
func (c *tieredCache) Get(key string) (*Outcome, bool) {
	if o, ok := c.mem.get(key); ok {
		return o, true
	}
	if c.disk == nil {
		return nil, false
	}
	o, size, ok := c.disk.get(key)
	if !ok {
		return nil, false
	}
	c.mem.put(key, o, size)
	c.diskHits.Add(1)
	return o, true
}

// Put stores a finished outcome under key. The outcome is serialized
// once (the JSON bytes double as the memory tier's accounting unit and
// the disk tier's payload) and written through both tiers.
func (c *tieredCache) Put(key string, o *Outcome) {
	blob, err := json.Marshal(o)
	if err != nil {
		return // outcomes are plain data; cannot happen
	}
	c.mem.put(key, o, int64(len(blob)))
	if c.disk != nil {
		c.disk.put(key, blob)
	}
}

// Len returns the in-memory entry count.
func (c *tieredCache) Len() int { return c.mem.len() }

// Bytes returns the in-memory accounted bytes.
func (c *tieredCache) Bytes() int64 { return c.mem.size() }
