// Package lru is the one bounded cache behind every serving tier: a
// generic, mutex-guarded least-recently-used map with an optional entry
// bound, byte bound and idle TTL, and one set of counters.
//
// The analysis is a pure function of (source, options), so the tiers
// built on it are content-addressed and need no invalidation, only a
// capacity policy: the server's result cache, the disk store's index,
// the per-function unit store, and the session table (which adds the
// idle TTL).
package lru

import (
	"sync"
	"time"
)

// Config sets a cache's bounds. A zero field switches its bound off.
type Config[K comparable, V any] struct {
	// MaxEntries bounds the number of entries.
	MaxEntries int
	// MaxBytes bounds the sum of Size over the entries. A value whose
	// size alone exceeds it is not stored.
	MaxBytes int64
	// Size weighs an entry against MaxBytes; nil weighs every entry 0.
	Size func(K, V) int64
	// TTL drops an entry that has been idle (neither read nor written)
	// for longer. Expiry is lazy: every call first drops the expired
	// entries at the least recently used end.
	TTL time.Duration
	// Now is the clock TTL is measured by (nil: time.Now). It must not
	// run backwards.
	Now func() time.Time
	// OnEvict is called for every entry a bound or the TTL drops, never
	// for Remove, Invalidate or Clear. It runs after the cache is
	// unlocked, so it may block.
	OnEvict func(K, V)
}

// Stats is a snapshot of a cache's counters and size.
type Stats struct {
	Hits, Misses int64
	// Evictions counts entries dropped by a bound, Expirations entries
	// dropped by the TTL.
	Evictions, Expirations int64
	Entries                int
	Bytes                  int64
}

// entry is one cached value, linked into the recency list.
type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
	size       int64
	used       time.Duration // last access, since the cache's epoch (TTL only)
}

// Cache is a bounded LRU map. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	cfg   Config[K, V]
	epoch time.Time

	mu   sync.Mutex
	m    map[K]*entry[K, V]
	root entry[K, V] // list sentinel: root.next is the most recently used
	st   Stats
}

// New returns an empty cache with the given bounds.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Cache[K, V]{cfg: cfg, m: map[K]*entry[K, V]{}}
	if cfg.TTL > 0 {
		c.epoch = cfg.Now()
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var buf [4]*entry[K, V]
	var v V
	c.mu.Lock()
	now, dead := c.expire(buf[:0])
	e := c.m[k]
	if e == nil {
		c.st.Misses++
	} else {
		c.st.Hits++
		c.touch(e, now)
		v = e.val
	}
	c.mu.Unlock()
	c.notify(dead)
	return v, e != nil
}

// Touch marks k most recently used without counting a hit or a miss,
// and reports whether k was present.
func (c *Cache[K, V]) Touch(k K) bool {
	var buf [4]*entry[K, V]
	c.mu.Lock()
	now, dead := c.expire(buf[:0])
	e := c.m[k]
	if e != nil {
		c.touch(e, now)
	}
	c.mu.Unlock()
	c.notify(dead)
	return e != nil
}

// Put stores v under k as the most recently used entry, then drops
// least recently used entries until both bounds hold. A re-put of a
// present key only refreshes its recency: the tiers are
// content-addressed, so the value is the one already stored. Put
// reports false, storing nothing, when v alone exceeds MaxBytes.
func (c *Cache[K, V]) Put(k K, v V) bool {
	var size int64
	if c.cfg.Size != nil {
		size = c.cfg.Size(k, v)
	}
	if c.cfg.MaxBytes > 0 && size > c.cfg.MaxBytes {
		return false
	}
	var buf [4]*entry[K, V]
	c.mu.Lock()
	now, dead := c.expire(buf[:0])
	if e := c.m[k]; e != nil {
		c.touch(e, now)
	} else {
		e = &entry[K, V]{key: k, val: v, size: size, used: now}
		c.m[k] = e
		c.link(e)
		c.st.Bytes += size
		for c.over() {
			dead = append(dead, c.drop(c.root.prev))
			c.st.Evictions++
		}
	}
	c.mu.Unlock()
	c.notify(dead)
	return true
}

// Remove drops k without calling OnEvict and reports whether it was
// present.
func (c *Cache[K, V]) Remove(k K) bool {
	var buf [4]*entry[K, V]
	c.mu.Lock()
	_, dead := c.expire(buf[:0])
	e := c.m[k]
	if e != nil {
		c.drop(e)
	}
	c.mu.Unlock()
	c.notify(dead)
	return e != nil
}

// Invalidate is for a caller whose Get returned a value that proved
// unusable, such as an index entry whose file is damaged: it removes k
// like Remove and recounts that Get as a miss.
func (c *Cache[K, V]) Invalidate(k K) {
	var buf [4]*entry[K, V]
	c.mu.Lock()
	_, dead := c.expire(buf[:0])
	if e := c.m[k]; e != nil {
		c.drop(e)
	}
	c.st.Hits--
	c.st.Misses++
	c.mu.Unlock()
	c.notify(dead)
}

// Clear drops every entry without calling OnEvict and returns how many
// there were.
func (c *Cache[K, V]) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m)
	clear(c.m)
	c.root.prev, c.root.next = &c.root, &c.root
	c.st.Bytes = 0
	return n
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int { return c.Stats().Entries }

// Stats returns a snapshot of the counters after dropping expired
// entries.
func (c *Cache[K, V]) Stats() Stats {
	var buf [4]*entry[K, V]
	c.mu.Lock()
	_, dead := c.expire(buf[:0])
	st := c.st
	st.Entries = len(c.m)
	c.mu.Unlock()
	c.notify(dead)
	return st
}

// over reports whether a bound is exceeded. Caller holds mu.
func (c *Cache[K, V]) over() bool {
	return (c.cfg.MaxEntries > 0 && len(c.m) > c.cfg.MaxEntries) ||
		(c.cfg.MaxBytes > 0 && c.st.Bytes > c.cfg.MaxBytes)
}

// expire reads the clock and drops the entries idle past the TTL,
// appending them to dead. The list is in access order, so the sweep
// stops at the first unexpired entry from the tail. Caller holds mu.
func (c *Cache[K, V]) expire(dead []*entry[K, V]) (time.Duration, []*entry[K, V]) {
	if c.cfg.TTL <= 0 {
		return 0, dead
	}
	now := c.cfg.Now().Sub(c.epoch)
	for e := c.root.prev; e != &c.root && now-e.used > c.cfg.TTL; e = c.root.prev {
		dead = append(dead, c.drop(e))
		c.st.Expirations++
	}
	return now, dead
}

// notify calls OnEvict for the dropped entries. Caller does not hold mu.
func (c *Cache[K, V]) notify(dead []*entry[K, V]) {
	if c.cfg.OnEvict == nil {
		return
	}
	for _, e := range dead {
		c.cfg.OnEvict(e.key, e.val)
	}
}

// link inserts e at the front of the list. Caller holds mu.
func (c *Cache[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// touch moves e to the front of the list and stamps its access time.
// Caller holds mu.
func (c *Cache[K, V]) touch(e *entry[K, V], now time.Duration) {
	e.used = now
	e.prev.next, e.next.prev = e.next, e.prev
	c.link(e)
}

// drop unlinks e from the list and the map and returns it. Caller holds
// mu.
func (c *Cache[K, V]) drop(e *entry[K, V]) *entry[K, V] {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(c.m, e.key)
	c.st.Bytes -= e.size
	return e
}
