// Package gaitserve is the high-QPS read side of the gait service
// (DESIGN.md §15): the pieces that turn a repertoire archive sitting
// in the content-addressed store into an endpoint that answers
// "give me a gait for (heading, stride)" at memory speed.
//
// Three independent primitives, composed by internal/serve:
//
//   - Cache — an in-memory map from run id to decoded
//     repertoire.Archive, keyed by the snapshot's content hash, with
//     singleflight loading (N concurrent first hits decode once) and
//     bounded LRU eviction;
//   - the Append* encoders — allocation-free JSON rendering of lookup
//     and listing responses into caller-reused buffers (//leo:hotpath,
//     TestAllocs-pinned at 0 allocs/op);
//   - Hub — a bounded-replay progress broker behind the SSE endpoint:
//     run drivers publish one Progress per engine step, subscribers
//     replay the retained tail and then follow live.
//
// The package never reads clocks, draws randomness, or spawns
// goroutines: callers bring their own concurrency (HTTP handler
// goroutines block on channels the Hub hands out), which keeps the
// package safe to call from the replay-critical serve layer.
//
//leo:deterministic
package gaitserve

import (
	"sync"
	"sync/atomic"

	"leonardo/internal/repertoire"
)

// Cache is the decoded-archive cache. Get is safe for concurrent use;
// a miss decodes under a per-key singleflight so a stampede of first
// queries for one run costs one decode, and the total number of
// decoded archives held is bounded by an LRU.
type Cache struct {
	cap int

	hits      atomic.Int64
	misses    atomic.Int64
	decodes   atomic.Int64
	evictions atomic.Int64

	mu      sync.Mutex
	entries map[string]*entry
	// LRU order: head is most recently used, tail next to evict.
	head, tail *entry
}

// entry is one cached (or in-flight) decode. hash/arch/err are written
// once by the loading goroutine before ready closes, then read-only.
type entry struct {
	id   string
	hash string
	arch *repertoire.Archive
	err  error
	// ready closes when the decode (or its failure) is published.
	ready chan struct{}

	prev, next *entry
}

func (e *entry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// DefaultCacheSize is the decoded archives held when the cap is zero.
const DefaultCacheSize = 64

// NewCache builds a cache holding at most size decoded archives
// (0 = DefaultCacheSize).
func NewCache(size int) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache{cap: size, entries: make(map[string]*entry)}
}

// CacheStats is a point-in-time counter snapshot for metrics.
type CacheStats struct {
	Hits, Misses, Decodes, Evictions int64
	Entries                          int
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Decodes:   c.decodes.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Get returns the decoded archive for a run whose current snapshot has
// the given content hash. A cached entry with the same hash is a hit; a
// different hash (the run checkpointed again) drops the stale entry and
// decodes fresh. load must return the snapshot bytes the hash names —
// the serve layer reads both under one lock, so they cannot diverge.
//
// Concurrent Gets for the same run coalesce: exactly one caller runs
// load+decode, the rest block until it publishes and then share the
// result (or its error).
func (c *Cache) Get(id, hash string, load func() ([]byte, error)) (*repertoire.Archive, error) {
	for {
		c.mu.Lock()
		e := c.entries[id]
		if e == nil {
			// Miss: become the loader for this key.
			e = &entry{id: id, hash: hash, ready: make(chan struct{})}
			c.entries[id] = e
			c.pushFrontLocked(e)
			c.evictLocked()
			c.mu.Unlock()
			c.misses.Add(1)
			return c.loadInto(e, load)
		}
		if !e.done() {
			// Singleflight: wait for the in-flight decode, then re-examine
			// (its hash may or may not match this query's).
			c.mu.Unlock()
			<-e.ready
			continue
		}
		if e.err == nil && e.hash == hash {
			c.touchLocked(e)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.arch, nil
		}
		// Stale (the run checkpointed past the cached snapshot) or a
		// poisoned error entry: drop it and retry as a fresh miss.
		c.removeLocked(e)
		c.mu.Unlock()
	}
}

// loadInto runs the decode outside the lock and publishes the result.
func (c *Cache) loadInto(e *entry, load func() ([]byte, error)) (*repertoire.Archive, error) {
	data, err := load()
	if err == nil {
		c.decodes.Add(1)
		e.arch, e.err = repertoire.DecodeArchive(data)
	} else {
		e.err = err
	}
	c.mu.Lock()
	if e.err != nil {
		// Never cache failures: the next Get retries from scratch.
		if c.entries[e.id] == e {
			c.removeLocked(e)
		}
	}
	close(e.ready)
	// Inserts that overshot the cap while this entry was in flight
	// skipped it; now that it is published, trim back to the cap.
	c.evictLocked()
	c.mu.Unlock()
	return e.arch, e.err
}

// Len returns the number of cached (including in-flight) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Invalidate drops a run's cached archive, if any — used when a run is
// deleted or its snapshot is replaced out of band.
func (c *Cache) Invalidate(id string) {
	c.mu.Lock()
	if e := c.entries[id]; e != nil {
		c.removeLocked(e)
	}
	c.mu.Unlock()
}

// evictLocked drops completed entries from the LRU tail until the
// cache is within its cap. In-flight entries are skipped: their
// loaders and waiters still hold them, and loadInto evicts again the
// moment they publish.
func (c *Cache) evictLocked() {
	for e := c.tail; e != nil && len(c.entries) > c.cap; {
		prev := e.prev
		if e.done() {
			c.removeLocked(e)
			c.evictions.Add(1)
		}
		e = prev
	}
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) touchLocked(e *entry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *Cache) removeLocked(e *entry) {
	if c.entries[e.id] == e {
		delete(c.entries, e.id)
	}
	c.unlinkLocked(e)
}

func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
