package lru

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func bodySize(_ string, b []byte) int64 { return int64(len(b)) }

func newBodyCache(maxEntries int, maxBytes int64) *Cache[string, []byte] {
	return New(Config[string, []byte]{MaxEntries: maxEntries, MaxBytes: maxBytes, Size: bodySize})
}

func TestHitMissCounters(t *testing.T) {
	c := newBodyCache(4, 1<<20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("body-a"))
	got, ok := c.Get("a")
	if !ok || string(got) != "body-a" {
		t.Fatalf("get = %q, %t", got, ok)
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Misses: 1, Entries: 1, Bytes: 6}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	c := newBodyCache(3, 1<<20)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", []byte("v"))
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestByteBound(t *testing.T) {
	c := newBodyCache(100, 10)
	c.Put("a", []byte("aaaa")) // 4 bytes
	c.Put("b", []byte("bbbb")) // 8 bytes
	c.Put("c", []byte("cccc")) // 12 -> evict oldest until <= 10
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte bound not enforced")
	}
	if st := c.Stats(); st.Bytes != 8 {
		t.Fatalf("bytes = %d, want 8", st.Bytes)
	}
	// A body larger than the whole budget is not stored at all.
	if c.Put("huge", make([]byte, 11)) {
		t.Fatal("Put reported an oversized body as stored")
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized body should not be cached")
	}
}

func TestRePutRefreshesRecency(t *testing.T) {
	c := newBodyCache(2, 1<<20)
	c.Put("a", []byte("v"))
	c.Put("b", []byte("v"))
	c.Put("a", []byte("v")) // refresh, not duplicate
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 2 {
		t.Fatalf("re-put changed accounting: %+v", st)
	}
	c.Put("c", []byte("v")) // should evict b, the least recent
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (refreshed by re-put)")
	}
}

// TestSteadyStateAllocs: lookups and re-puts allocate nothing, so the
// cache adds no per-request allocations to a serving path.
func TestSteadyStateAllocs(t *testing.T) {
	c := newBodyCache(8, 1<<20)
	body := []byte("body")
	c.Put("k", body)
	if n := testing.AllocsPerRun(100, func() {
		c.Get("k")
		c.Get("absent")
		c.Put("k", body)
	}); n != 0 {
		t.Errorf("Get/re-Put allocate %v times per run, want 0", n)
	}
}

// The model test drives the cache and a naive oracle (a slice in
// recency order) through the same random op scripts and compares them
// after every op.

type opKind int

const (
	opGet opKind = iota
	opPut
	opRemove
	opTouch
	opInvalidate // a Get, then Invalidate if it hit
	opAdvance
	numOps
)

type op struct {
	kind opKind
	key  int
	val  int // Put: the value, which is also its size; Advance: seconds
}

// script is one random cache configuration plus an op sequence.
type script struct {
	maxEntries int
	maxBytes   int64
	ttl        time.Duration
	ops        []op
}

func (script) Generate(r *rand.Rand, size int) reflect.Value {
	s := script{
		maxEntries: r.Intn(5),            // 0: unbounded
		maxBytes:   int64(r.Intn(4) * 6), // 0: unbounded
	}
	if r.Intn(2) == 0 {
		s.ttl = time.Duration(1+r.Intn(4)) * time.Second
	}
	n := r.Intn(4 * (size + 1))
	for i := 0; i < n; i++ {
		o := op{kind: opKind(r.Intn(int(numOps))), key: r.Intn(6)}
		switch o.kind {
		case opPut:
			o.val = r.Intn(9)
		case opAdvance:
			o.val = r.Intn(3)
		}
		s.ops = append(s.ops, o)
	}
	return reflect.ValueOf(s)
}

type kv struct{ key, val int }

type oracleEntry struct {
	key, val int
	used     time.Duration
}

// oracle is the reference model: entries most recently used first.
type oracle struct {
	script
	now     time.Duration
	entries []oracleEntry
	st      Stats
	evicted []kv
}

func (o *oracle) find(k int) int {
	for i, e := range o.entries {
		if e.key == k {
			return i
		}
	}
	return -1
}

func (o *oracle) bytes() (n int64) {
	for _, e := range o.entries {
		n += int64(e.val)
	}
	return n
}

func (o *oracle) dropTail() {
	e := o.entries[len(o.entries)-1]
	o.entries = o.entries[:len(o.entries)-1]
	o.evicted = append(o.evicted, kv{e.key, e.val})
}

func (o *oracle) sweep() {
	for o.ttl > 0 && len(o.entries) > 0 && o.now-o.entries[len(o.entries)-1].used > o.ttl {
		o.dropTail()
		o.st.Expirations++
	}
}

func (o *oracle) toFront(i int) {
	e := o.entries[i]
	e.used = o.now
	o.entries = append(o.entries[:i], o.entries[i+1:]...)
	o.entries = append([]oracleEntry{e}, o.entries...)
}

func (o *oracle) remove(i int) { o.entries = append(o.entries[:i], o.entries[i+1:]...) }

// apply runs one op on the model and returns what the cache call must
// return.
func (o *oracle) apply(x op) (val int, ok bool) {
	if x.kind == opAdvance {
		o.now += time.Duration(x.val) * time.Second
		return 0, false
	}
	if x.kind == opPut && o.maxBytes > 0 && int64(x.val) > o.maxBytes {
		return 0, false
	}
	o.sweep()
	i := o.find(x.key)
	switch x.kind {
	case opGet:
		if i < 0 {
			o.st.Misses++
			return 0, false
		}
		o.st.Hits++
		val = o.entries[i].val
		o.toFront(i)
		return val, true
	case opTouch:
		if i >= 0 {
			o.toFront(i)
		}
		return 0, i >= 0
	case opPut:
		if i >= 0 {
			o.toFront(i)
			return 0, true
		}
		o.entries = append([]oracleEntry{{key: x.key, val: x.val, used: o.now}}, o.entries...)
		for (o.maxEntries > 0 && len(o.entries) > o.maxEntries) || (o.maxBytes > 0 && o.bytes() > o.maxBytes) {
			o.dropTail()
			o.st.Evictions++
		}
		return 0, true
	case opRemove:
		if i >= 0 {
			o.remove(i)
		}
		return 0, i >= 0
	case opInvalidate:
		o.st.Misses++
		if i >= 0 {
			o.remove(i)
		}
		return 0, i >= 0
	}
	return 0, false
}

// contents walks the cache's recency list, most recently used first,
// without sweeping.
func contents(c *Cache[int, int]) []kv {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []kv
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, kv{e.key, e.val})
	}
	return out
}

func runScript(s script) error {
	o := &oracle{script: s}
	var evicted []kv
	c := New(Config[int, int]{
		MaxEntries: s.maxEntries,
		MaxBytes:   s.maxBytes,
		Size:       func(_, v int) int64 { return int64(v) },
		TTL:        s.ttl,
		Now:        func() time.Time { return time.Unix(1000, 0).Add(o.now) },
		OnEvict:    func(k, v int) { evicted = append(evicted, kv{k, v}) },
	})
	for i, x := range s.ops {
		var got int
		var ok bool
		switch x.kind {
		case opGet:
			got, ok = c.Get(x.key)
		case opPut:
			ok = c.Put(x.key, x.val)
		case opRemove:
			ok = c.Remove(x.key)
		case opTouch:
			ok = c.Touch(x.key)
		case opInvalidate:
			if _, ok = c.Get(x.key); ok {
				c.Invalidate(x.key)
			}
		}
		want, wantOK := o.apply(x)
		if got != want || ok != wantOK {
			return fmt.Errorf("op %d %+v: returned (%d, %t), want (%d, %t)", i, x, got, ok, want, wantOK)
		}
		var wantContents []kv
		for _, e := range o.entries {
			wantContents = append(wantContents, kv{e.key, e.val})
		}
		if gotContents := contents(c); !reflect.DeepEqual(gotContents, wantContents) {
			return fmt.Errorf("op %d %+v: contents %v, want %v", i, x, gotContents, wantContents)
		}
		if !reflect.DeepEqual(evicted, o.evicted) {
			return fmt.Errorf("op %d %+v: OnEvict calls %v, want %v", i, x, evicted, o.evicted)
		}
		c.mu.Lock()
		st := c.st
		st.Entries = len(c.m)
		c.mu.Unlock()
		want2 := o.st
		want2.Entries, want2.Bytes = len(o.entries), o.bytes()
		if st != want2 {
			return fmt.Errorf("op %d %+v: counters %+v, want %+v", i, x, st, want2)
		}
		if (s.maxEntries > 0 && st.Entries > s.maxEntries) || (s.maxBytes > 0 && st.Bytes > s.maxBytes) {
			return fmt.Errorf("op %d %+v: bounds broken: %+v", i, x, st)
		}
	}
	// Stats sweeps like every other call.
	o.sweep()
	want := o.st
	want.Entries, want.Bytes = len(o.entries), o.bytes()
	if st := c.Stats(); st != want {
		return fmt.Errorf("final Stats %+v, want %+v", st, want)
	}
	if !reflect.DeepEqual(evicted, o.evicted) {
		return fmt.Errorf("final OnEvict calls %v, want %v", evicted, o.evicted)
	}
	return nil
}

func TestModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(s script) bool {
		if err := runScript(s); err != nil {
			t.Logf("config {maxEntries %d, maxBytes %d, ttl %v}: %v", s.maxEntries, s.maxBytes, s.ttl, err)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAccess hammers one cache from several goroutines (run it
// under -race) and checks that the bounds and the eviction accounting
// still hold afterwards.
func TestConcurrentAccess(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	var evicted int64
	c := New(Config[int, int]{
		MaxEntries: 16,
		MaxBytes:   64,
		Size:       func(_, v int) int64 { return int64(v) },
		TTL:        50 * time.Millisecond,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(time.Millisecond)
			return now
		},
		OnEvict: func(int, int) {
			mu.Lock()
			evicted++
			mu.Unlock()
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := r.Intn(40)
				switch r.Intn(6) {
				case 0, 1:
					c.Get(k)
				case 2:
					c.Put(k, 1+r.Intn(8))
				case 3:
					c.Remove(k)
				case 4:
					c.Touch(k)
				case 5:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	var bytes int64
	for _, e := range contents(c) {
		bytes += int64(e.val)
	}
	if st.Entries > 16 || st.Bytes > 64 || st.Bytes != bytes {
		t.Fatalf("stats %+v (list bytes %d) break the bounds", st, bytes)
	}
	mu.Lock()
	defer mu.Unlock()
	if evicted != st.Evictions+st.Expirations {
		t.Fatalf("OnEvict ran %d times for %d evictions + %d expirations", evicted, st.Evictions, st.Expirations)
	}
}
