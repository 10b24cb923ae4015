package server

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU with single-flight computation: Do returns the
// cached value for a key, and on a miss runs the compute function exactly
// once while concurrent callers for the same key block and share the result.
// vpserve keys its caches by program fingerprint (+ predictor configuration
// for results), so a burst of identical requests costs one simulation.
//
// Errors are not cached: a failed computation is removed so a later request
// retries. Eviction is strict LRU over completed entries; an entry is only
// evictable once its computation has finished, so an in-flight value can
// never be dropped while waiters hold its ready channel.
type Cache[V any] struct {
	// OnPanic, when set, observes every compute-function panic the cache
	// recovers (the server counts them in /metrics). A recovered panic is
	// surfaced to all waiters as a *PanicError and is never cached — the
	// entry is dropped like any failed computation, so a fill panic can
	// neither wedge waiters on an unclosed ready channel nor poison the
	// key.
	OnPanic func()

	mu sync.Mutex
	// max is the entry bound; 0 disables the cache entirely (every Do
	// computes), which keeps the callers branch-free.
	max int
	ll  *list.List // front = most recently used, of *centry[V]
	m   map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

// centry is one cache slot. ready is closed when the computation finished;
// val/err are immutable afterwards.
type centry[V any] struct {
	key   string
	ready chan struct{}
	val   V
	err   error
}

// NewCache returns an LRU cache bounded to max entries.
func NewCache[V any](max int) *Cache[V] {
	return &Cache[V]{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// fill runs a compute function shielded against panics (see OnPanic).
func (c *Cache[V]) fill(fn func() (V, error)) (v V, err error) {
	defer recoverToError(&err, c.OnPanic)
	return fn()
}

// Do returns the value for key, computing it with fn on a miss. hit reports
// whether the value was served from the cache — joining another caller's
// in-flight computation counts as a hit (the work was deduplicated).
func (c *Cache[V]) Do(key string, fn func() (V, error)) (val V, hit bool, err error) {
	if c.max <= 0 {
		val, err = c.fill(fn)
		return val, false, err
	}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*centry[V])
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &centry[V]{key: key, ready: make(chan struct{})}
	c.m[key] = c.ll.PushFront(e)
	c.misses++
	c.mu.Unlock()

	e.val, e.err = c.fill(fn)
	close(e.ready)

	c.mu.Lock()
	if e.err != nil {
		// Drop failed computations so the next request retries.
		if el, ok := c.m[key]; ok && el.Value.(*centry[V]) == e {
			c.ll.Remove(el)
			delete(c.m, key)
		}
	} else {
		c.evictLocked()
	}
	c.mu.Unlock()
	return e.val, false, e.err
}

// Get returns the completed value for key without computing. It reports
// false for absent keys and for keys whose computation is still in flight or
// failed.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return zero, false
	}
	e := el.Value.(*centry[V])
	select {
	case <-e.ready:
	default:
		c.mu.Unlock()
		return zero, false
	}
	if e.err != nil {
		c.mu.Unlock()
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	c.mu.Unlock()
	return e.val, true
}

// evictLocked drops least-recently-used completed entries until the cache is
// within bounds. Called with mu held.
func (c *Cache[V]) evictLocked() {
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		for el != nil {
			e := el.Value.(*centry[V])
			select {
			case <-e.ready:
				c.ll.Remove(el)
				delete(c.m, e.key)
				c.evictions++
				el = nil
			default:
				// In-flight: skip toward the front.
				el = el.Prev()
			}
		}
		if c.ll.Len() > c.max && !c.anyCompletedLocked() {
			return // everything in flight; try again on the next insert
		}
	}
}

func (c *Cache[V]) anyCompletedLocked() bool {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		select {
		case <-el.Value.(*centry[V]).ready:
			return true
		default:
		}
	}
	return false
}

// CacheStats is a point-in-time snapshot of cache effectiveness, reported by
// /metrics.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate_pct"`
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = 100 * float64(st.Hits) / float64(total)
	}
	return st
}
