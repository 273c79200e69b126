package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The budgeted store the daemon builds (NewCache: exp.Cache with the
// serving clock) under the contracts ebcpd relies on: counters, LRU
// eviction under the byte budget, the oversize rule and single-flight.
// The Do(ctx) cancellation rows live with exp.Cache itself.

var bg = context.Background()

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1 << 20)
	calls := 0
	compute := func() (any, int) { calls++; return "v", 100 }

	v, hit, _ := c.Do(bg, "k", compute)
	if hit || v != "v" || calls != 1 {
		t.Fatalf("first Do: v=%v hit=%v calls=%d, want v hit=false calls=1", v, hit, calls)
	}
	v, hit, _ = c.Do(bg, "k", compute)
	if !hit || v != "v" || calls != 1 {
		t.Fatalf("second Do: v=%v hit=%v calls=%d, want v hit=true calls=1", v, hit, calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Joins != 0 || st.Entries != 1 || st.Bytes != 100 {
		t.Errorf("stats = %+v, want hits=1 misses=1 joins=0 entries=1 bytes=100", st)
	}
	if st.HitRatio != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", st.HitRatio)
	}
	if st.ComputeUS.Count != 1 {
		t.Errorf("compute histogram count = %d, want 1 (one computation)", st.ComputeUS.Count)
	}
}

// TestCacheCoalescesInflight proves singleflight: N concurrent Do calls
// of one key run compute once; everyone else joins.
func TestCacheCoalescesInflight(t *testing.T) {
	c := NewCache(1 << 20)
	const waiters = 8

	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup

	// The flight owner blocks in compute until released.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(bg, "k", func() (any, int) {
			calls.Add(1)
			close(started)
			<-release
			return 42, 8
		})
	}()
	<-started

	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, _ := c.Do(bg, "k", func() (any, int) {
				calls.Add(1)
				return -1, 8
			})
			if !hit {
				t.Error("joiner did not report a hit")
			}
			results <- v.(int)
		}()
	}
	// Wait until every joiner is parked on the flight, then release.
	for c.Stats().Joins < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for v := range results {
		if v != 42 {
			t.Errorf("joiner got %d, want 42", v)
		}
	}
	if st := c.Stats(); st.Joins != waiters || st.Misses != 1 {
		t.Errorf("stats = %+v, want joins=%d misses=1", st, waiters)
	}
}

// TestCacheEvictsLRUUnderBudget inserts three 100-byte values into a
// 250-byte cache and checks the least-recently-*used* (not inserted)
// entry goes first.
func TestCacheEvictsLRUUnderBudget(t *testing.T) {
	c := NewCache(250)
	put := func(k string) { c.Do(bg, k, func() (any, int) { return k, 100 }) }
	get := func(k string) bool { _, hit, _ := c.Do(bg, k, func() (any, int) { return k, 100 }); return hit }

	put("a")
	put("b")
	if !get("a") { // touch a: b is now LRU
		t.Fatal("a should be cached")
	}
	put("c") // 300 bytes > 250: evicts b
	if !get("a") {
		t.Error("a (recently used) was evicted, want b")
	}
	if !get("c") {
		t.Error("c (just inserted) was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if get("b") {
		t.Error("b still cached, want evicted")
	}
	if st.Bytes > 250 {
		t.Errorf("bytes = %d exceeds budget 250 after eviction", st.Bytes)
	}
}

// TestCacheRejectsOversizeEntry is the regression test for the
// oversize-squatter bug: an entry costing more than the whole budget
// used to be stored anyway, and because eviction spares the newest
// entry it could never leave — it pinned itself permanently while
// forcing every fitting entry out. Now it is served but not stored.
func TestCacheRejectsOversizeEntry(t *testing.T) {
	c := NewCache(250)
	calls := 0
	big := func() (any, int) { calls++; return "x", 1000 }

	if v, hit, _ := c.Do(bg, "big", big); hit || v != "x" {
		t.Fatalf("first Do: v=%v hit=%v, want the computed value with hit=false", v, hit)
	}
	if _, hit, _ := c.Do(bg, "big", big); hit {
		t.Error("oversize entry was stored; the same key must recompute")
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (no storage, no coalescing window)", calls)
	}
	st := c.Stats()
	if st.Oversize != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats = %+v, want oversize=2 entries=0 bytes=0", st)
	}

	// Fitting entries survive an oversize computation on either side.
	c.Do(bg, "a", func() (any, int) { return "a", 100 })
	c.Do(bg, "big", big)
	if _, hit, _ := c.Do(bg, "a", func() (any, int) { return "a", 100 }); !hit {
		t.Error("an oversize computation evicted a fitting entry")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Evictions)
	}
}

// TestCacheUnboundedKeepsLargeEntries: with no budget there is no such
// thing as oversize.
func TestCacheUnboundedKeepsLargeEntries(t *testing.T) {
	c := NewCache(0)
	c.Do(bg, "big", func() (any, int) { return "x", 1 << 40 })
	if _, hit, _ := c.Do(bg, "big", func() (any, int) { return "y", 1 << 40 }); !hit {
		t.Error("unbounded cache dropped a large entry")
	}
	if st := c.Stats(); st.Oversize != 0 {
		t.Errorf("oversize = %d, want 0 without a budget", st.Oversize)
	}
}

func TestCacheUnboundedBudget(t *testing.T) {
	c := NewCache(-1)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Do(bg, k, func() (any, int) { return k, 1 << 20 })
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 100 {
		t.Errorf("unbounded cache evicted: %+v", st)
	}
}

func TestCacheRace(t *testing.T) {
	c := NewCache(5000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%50)
				v, _, _ := c.Do(bg, k, func() (any, int) { return k, 200 })
				if v.(string) != k {
					t.Errorf("key %s returned %v", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 5000 {
		t.Errorf("bytes %d over budget after racing inserts", st.Bytes)
	}
}
