// Package memo is the one in-process memoization mechanism of the
// planner stack: a bounded, keyed, single-flight LRU. Every cache that
// builds a value once and keeps it — dispatch-LP results, post-MTD
// estimators, resolved cases, finished planner responses, the scenario
// runner's per-network engines and estimator caches — is a Cache.
//
// Counting rule: every Get has exactly one Outcome, decided under the
// cache lock at the moment of lookup. The caller that creates an entry is
// the one that runs build (Computed); a caller that finds the entry still
// being built waits for it (Joined); a caller that finds it finished reads
// it (Hit). So Computed counts builds exactly, and Computed + Joined + Hit
// counts lookups.
package memo

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// Outcome says how one Get was served.
type Outcome uint8

const (
	// Computed: this caller created the entry and ran build.
	Computed Outcome = iota
	// Joined: the entry was being built by another caller; this caller
	// waited for that build and shares its result.
	Joined
	// Hit: the entry was already built.
	Hit
)

// ErrBuildPanicked is what callers joined to a build that panicked
// receive. The panic itself propagates in the building goroutine, and the
// entry is dropped, so the next Get builds again.
var ErrBuildPanicked = errors.New("memo: build panicked")

// Counters tallies Get outcomes. Several caches may share one Counters
// (the process-wide dispatch-solve and estimator counters do); each
// counter is incremented when the outcome is decided, before a Joined
// caller starts waiting.
type Counters struct {
	Computed, Joined, Hit atomic.Int64
}

// Cache is a bounded single-flight LRU from K to V. At most capacity
// entries are held; inserting past it evicts the least recently used
// entry (an evicted entry still being built finishes for the callers
// already waiting on it). A build's value and error are kept together and
// replayed to every later caller, except errors the forget rule names:
// those entries are removed before their waiters are released, so no
// caller after the failing build is ever served the error from the cache.
//
// A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	capacity int
	counts   *Counters
	forget   func(error) bool

	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     list.List // front = most recent; values are *entry[K, V]
}

type entry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed once val and err are final
	val  V
	err  error
	elem *list.Element
}

// New returns an empty cache holding at most capacity (> 0) entries.
// counts, when non-nil, receives every Get's outcome. forget, when
// non-nil, reports whether a build error must not be kept (a transient
// refusal such as load shedding); every other error is cached like a
// value.
func New[K comparable, V any](capacity int, counts *Counters, forget func(error) bool) *Cache[K, V] {
	if capacity <= 0 {
		panic("memo: capacity must be positive")
	}
	return &Cache[K, V]{capacity: capacity, counts: counts, forget: forget, entries: map[K]*entry[K, V]{}}
}

// Get returns the value and error stored under key, running build to
// produce them if no entry exists. Concurrent Gets of one missing key run
// build once: the first caller builds, the rest wait for it.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		select {
		case <-e.done:
			c.count(Hit)
			c.mu.Unlock()
			return e.val, Hit, e.err
		default:
		}
		c.count(Joined)
		c.mu.Unlock()
		<-e.done
		return e.val, Joined, e.err
	}
	c.count(Computed)
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	if c.lru.Len() > c.capacity {
		c.remove(c.lru.Back().Value.(*entry[K, V]))
	}
	c.mu.Unlock()

	built := false
	defer func() {
		drop := !built || e.err != nil && c.forget != nil && c.forget(e.err)
		if !built {
			e.err = ErrBuildPanicked
		}
		if drop {
			c.mu.Lock()
			c.remove(e)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = build()
	built = true
	return e.val, Computed, e.err
}

// Len returns the number of entries currently held, in flight or built.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// remove drops e if it is still the entry stored under its key (it may
// already have been evicted and its key reused). c.mu must be held.
func (c *Cache[K, V]) remove(e *entry[K, V]) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	}
}

func (c *Cache[K, V]) count(o Outcome) {
	if n := c.counts; n != nil {
		[...]*atomic.Int64{Computed: &n.Computed, Joined: &n.Joined, Hit: &n.Hit}[o].Add(1)
	}
}
