package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func constant(v int) func() (int, error) {
	return func() (int, error) { return v, nil }
}

// TestSingleFlightOutcomes pins the counting rule with a blocking build:
// the creator gets Computed, N concurrent joiners get Joined and share the
// one build, and a later caller gets Hit. The build blocks until the
// counters prove every joiner is waiting, so nothing races its finishing.
func TestSingleFlightOutcomes(t *testing.T) {
	var counts Counters
	c := New[string, int](4, &counts, nil)
	const joiners = 8
	release := make(chan struct{})
	var builds atomic.Int64
	build := func() (int, error) {
		builds.Add(1)
		<-release
		return 42, nil
	}

	created := make(chan Outcome, 1)
	go func() {
		v, o, err := c.Get("k", build)
		if v != 42 || err != nil {
			t.Errorf("creator got %d, %v", v, err)
		}
		created <- o
	}()
	waitFor(t, "the creator to start building", func() bool { return builds.Load() == 1 })

	var wg sync.WaitGroup
	outcomes := make([]Outcome, joiners)
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, o, err := c.Get("k", func() (int, error) {
				t.Error("joiner ran build")
				return 0, nil
			})
			if v != 42 || err != nil {
				t.Errorf("joiner %d got %d, %v", i, v, err)
			}
			outcomes[i] = o
		}(i)
	}
	waitFor(t, "every joiner to wait", func() bool { return counts.Joined.Load() == joiners })
	close(release)
	wg.Wait()

	if o := <-created; o != Computed {
		t.Errorf("creator outcome %d, want Computed", o)
	}
	for i, o := range outcomes {
		if o != Joined {
			t.Errorf("joiner %d outcome %d, want Joined", i, o)
		}
	}
	if v, o, err := c.Get("k", build); v != 42 || o != Hit || err != nil {
		t.Errorf("later Get = %d, %d, %v; want 42, Hit, nil", v, o, err)
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("%d builds, want 1", b)
	}
	if got := [3]int64{counts.Computed.Load(), counts.Joined.Load(), counts.Hit.Load()}; got != [3]int64{1, joiners, 1} {
		t.Errorf("counters computed/joined/hit = %v, want [1 %d 1]", got, joiners)
	}
}

// TestLRUEviction: capacity bounds the cache, the least recently used
// key is evicted first, and a re-touched key survives.
func TestLRUEviction(t *testing.T) {
	c := New[string, int](2, nil, nil)
	get := func(k string) Outcome {
		_, o, _ := c.Get(k, constant(len(k)))
		return o
	}
	if get("a") != Computed || get("b") != Computed {
		t.Fatal("fresh keys not computed")
	}
	if get("a") != Hit {
		t.Fatal("cached key not found")
	}
	// "b" is now the LRU entry; inserting "c" must evict it, not "a".
	get("c")
	if get("a") != Hit {
		t.Fatal("recently used key was evicted")
	}
	// That lookup refreshed "a"; "c" fell behind and the next insert
	// evicts it.
	get("d")
	if get("c") != Computed {
		t.Fatal("LRU key survived eviction")
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want its capacity 2", n)
	}
}

// TestForgottenErrorEvictedBeforeWaiters: an error the forget rule names
// is removed from the cache before the joined callers are released, so
// none of them — and no later caller — can be served it as a hit.
func TestForgottenErrorEvictedBeforeWaiters(t *testing.T) {
	errShed := errors.New("shed")
	var counts Counters
	c := New[string, int](4, &counts, func(err error) bool { return errors.Is(err, errShed) })
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, o, err := c.Get("k", func() (int, error) {
			close(started)
			<-release
			return 0, errShed
		})
		if o != Computed || !errors.Is(err, errShed) {
			t.Errorf("creator got %d, %v", o, err)
		}
	}()
	<-started
	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, o, err := c.Get("k", constant(1))
			if o != Joined || !errors.Is(err, errShed) {
				t.Errorf("joiner got %d, %v; want Joined with the shed error", o, err)
			}
			// The entry was gone before this joiner woke up.
			if n := c.Len(); n != 0 {
				t.Errorf("shed entry still cached after release (%d entries)", n)
			}
		}()
	}
	waitFor(t, "every joiner to wait", func() bool { return counts.Joined.Load() == joiners })
	close(release)
	wg.Wait()
	if v, o, err := c.Get("k", constant(7)); v != 7 || o != Computed || err != nil {
		t.Errorf("retry = %d, %d, %v; want a fresh build", v, o, err)
	}
}

// TestKeptErrorReplayed: any other build error is cached like a value.
func TestKeptErrorReplayed(t *testing.T) {
	errInfeasible := errors.New("infeasible")
	c := New[string, int](4, nil, func(err error) bool { return false })
	if _, o, err := c.Get("k", func() (int, error) { return 0, errInfeasible }); o != Computed || err != errInfeasible {
		t.Fatalf("first Get = %d, %v", o, err)
	}
	_, o, err := c.Get("k", func() (int, error) {
		t.Error("kept error rebuilt")
		return 0, nil
	})
	if o != Hit || err != errInfeasible {
		t.Errorf("second Get = %d, %v; want Hit replaying the error", o, err)
	}
}

// TestPanickedBuildReleasesJoiners: a panicking build propagates in its
// own goroutine, joined callers get ErrBuildPanicked instead of blocking,
// and the entry is dropped so the next Get builds again.
func TestPanickedBuildReleasesJoiners(t *testing.T) {
	var counts Counters
	c := New[string, int](4, &counts, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic did not propagate")
			}
		}()
		c.Get("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Get("k", constant(1))
		joined <- err
	}()
	waitFor(t, "the joiner to wait", func() bool { return counts.Joined.Load() == 1 })
	close(release)
	if err := <-joined; !errors.Is(err, ErrBuildPanicked) {
		t.Errorf("joiner got %v, want ErrBuildPanicked", err)
	}
	if v, o, err := c.Get("k", constant(3)); v != 3 || o != Computed || err != nil {
		t.Errorf("retry = %d, %d, %v; want a fresh build", v, o, err)
	}
}
