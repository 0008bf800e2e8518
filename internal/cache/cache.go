// Package cache implements the byte-capacity LRU cache the simulator
// uses for both browsers (1 MB) and proxies (16 GB), per §2.2 of the
// paper ("The cache replacement algorithm used in our simulator is
// LRU"). Entries remember whether they arrived by prefetch so hit
// accounting can attribute hits to prefetching versus ordinary caching.
package cache

import (
	"fmt"
	"math"
)

// DefaultBrowserCapacity is the paper's browser cache size (1 MB).
const DefaultBrowserCapacity = 1 << 20

// DefaultProxyCapacity is the paper's proxy disk cache size (16 GB).
const DefaultProxyCapacity = 16 << 30

// entry is one cached document, or a free slot. prev and next link it
// into the recency list (or, free, into the free list through next).
type entry struct {
	url        string
	size       int64
	prefetched bool
	prev, next int32
}

// LRU is a least-recently-used cache bounded by total byte size.
// It is not safe for concurrent use; the simulator is single-threaded
// per cache.
//
// Entries live in one slice and link to each other by index, so a put
// allocates nothing once the slice has grown to the working set and a
// hit moves two indices instead of list pointers. Slot 0 is the list
// root: its next is the most recent entry and its prev the least recent.
// Removed slots are kept on a free list for the next put.
type LRU struct {
	capacity int64
	used     int64
	entries  []entry          // entries[0] is the root
	items    map[string]int32 // url -> slot in entries
	free     int32            // first free slot, 0 when none

	// statistics
	hits, misses, puts, evictions int64
}

// NewLRU returns an empty cache with the given byte capacity. It panics
// on a non-positive capacity: a cache that can hold nothing is a
// configuration error, not a runtime condition.
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive capacity %d", capacity))
	}
	return &LRU{
		capacity: capacity,
		entries:  make([]entry, 1),
		items:    make(map[string]int32),
	}
}

// Capacity returns the configured byte capacity.
func (c *LRU) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached.
func (c *LRU) Used() int64 { return c.used }

// Len returns the number of cached documents.
func (c *LRU) Len() int { return len(c.items) }

// Contains reports whether url is cached without touching recency or
// statistics.
func (c *LRU) Contains(url string) bool {
	_, ok := c.items[url]
	return ok
}

// Get looks up url, promoting it to most-recently-used on a hit. The
// second result reports whether the cached copy arrived by prefetch.
func (c *LRU) Get(url string) (ok, prefetched bool) {
	i, found := c.items[url]
	if !found {
		c.misses++
		return false, false
	}
	c.hits++
	c.moveToFront(i)
	return true, c.entries[i].prefetched
}

// Put inserts or refreshes url with the given size. prefetched tags the
// copy's origin; re-putting an entry updates its size, tag, and
// recency. Documents larger than the whole cache are ignored (they
// could never be useful and would evict everything). Sizes must be
// non-negative; zero-size documents occupy an entry slot only.
func (c *LRU) Put(url string, size int64, prefetched bool) {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative size %d for %s", size, url))
	}
	if size > c.capacity {
		return
	}
	c.puts++
	if i, ok := c.items[url]; ok {
		e := &c.entries[i]
		c.used += size - e.size
		e.size = size
		e.prefetched = prefetched
		c.moveToFront(i)
	} else {
		i := c.alloc()
		e := &c.entries[i]
		e.url, e.size, e.prefetched = url, size, prefetched
		c.linkFront(i)
		c.items[url] = i
		c.used += size
	}
	for c.used > c.capacity {
		c.evictOldest()
	}
}

// MarkDemand clears the prefetched tag on url if cached: once a
// prefetched copy has served a real request, later hits are ordinary
// cache hits.
func (c *LRU) MarkDemand(url string) {
	if i, ok := c.items[url]; ok {
		c.entries[i].prefetched = false
	}
}

// Remove evicts url if present and reports whether it was cached.
func (c *LRU) Remove(url string) bool {
	i, ok := c.items[url]
	if !ok {
		return false
	}
	c.removeSlot(i)
	return true
}

func (c *LRU) evictOldest() {
	i := c.entries[0].prev
	if i == 0 {
		return
	}
	c.evictions++
	c.removeSlot(i)
}

// alloc takes a slot from the free list, or grows the slice by one.
func (c *LRU) alloc() int32 {
	if i := c.free; i != 0 {
		c.free = c.entries[i].next
		return i
	}
	if len(c.entries) == math.MaxInt32 {
		panic("cache: entry index overflow")
	}
	c.entries = append(c.entries, entry{})
	return int32(len(c.entries) - 1)
}

// removeSlot unlinks slot i, forgets its URL and frees the slot.
func (c *LRU) removeSlot(i int32) {
	c.unlink(i)
	e := &c.entries[i]
	delete(c.items, e.url)
	c.used -= e.size
	*e = entry{next: c.free}
	c.free = i
}

func (c *LRU) unlink(i int32) {
	e := &c.entries[i]
	c.entries[e.prev].next = e.next
	c.entries[e.next].prev = e.prev
}

// linkFront links slot i in as the most recent entry.
func (c *LRU) linkFront(i int32) {
	root := &c.entries[0]
	e := &c.entries[i]
	e.prev, e.next = 0, root.next
	c.entries[root.next].prev = i
	root.next = i
}

func (c *LRU) moveToFront(i int32) {
	if c.entries[0].next == i {
		return
	}
	c.unlink(i)
	c.linkFront(i)
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits, Misses, Puts, Evictions int64
}

// Stats returns the current counters.
func (c *LRU) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Puts: c.puts, Evictions: c.evictions}
}

// Reset empties the cache and clears statistics, keeping the capacity.
func (c *LRU) Reset() {
	clear(c.entries)
	c.entries = c.entries[:1]
	clear(c.items)
	c.free = 0
	c.used = 0
	c.hits, c.misses, c.puts, c.evictions = 0, 0, 0, 0
}
