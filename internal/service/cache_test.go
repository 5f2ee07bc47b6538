package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/solver"
)

func completeReport(makespan int64) solver.WireReport {
	return solver.WireReport{Solver: "test", Makespan: makespan, Complete: true}
}

// doLocal is do for a locally computed report, the only shape these
// tests need (forwarded flights are covered by the cluster tests).
func doLocal(c *resultCache, ctx context.Context, key string, share bool, compute func() (solver.WireReport, error)) (solver.WireReport, bool, error) {
	out, cached, err := c.do(ctx, key, share, func(context.Context) (flightResult, error) {
		rep, err := compute()
		return flightResult{rep: rep}, err
	})
	return out.rep, cached, err
}

func TestCacheHitAvoidsRecompute(t *testing.T) {
	c := newResultCache(4)
	calls := 0
	compute := func() (solver.WireReport, error) {
		calls++
		return completeReport(7), nil
	}
	ctx := context.Background()
	rep, cached, err := doLocal(c, ctx, "k", true, compute)
	if err != nil || cached || rep.Makespan != 7 {
		t.Fatalf("first do = (%+v, %v, %v); want a computed miss", rep, cached, err)
	}
	rep, cached, err = doLocal(c, ctx, "k", true, compute)
	if err != nil || !cached || rep.Makespan != 7 {
		t.Fatalf("second do = (%+v, %v, %v); want a cache hit", rep, cached, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; want 1", calls)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, size 1", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := doLocal(c, ctx, key, true, func() (solver.WireReport, error) {
			return completeReport(int64(i)), nil
		}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Touch k0 so k1 becomes the eviction victim.
			if _, cached, _ := doLocal(c, ctx, "k0", true, nil); !cached {
				t.Fatal("k0 should still be cached")
			}
		}
	}
	if _, cached, _ := doLocal(c, ctx, "k0", true, func() (solver.WireReport, error) {
		return completeReport(0), nil
	}); !cached {
		t.Fatal("recently-used k0 was evicted")
	}
	recomputed := false
	if _, cached, _ := doLocal(c, ctx, "k1", true, func() (solver.WireReport, error) {
		recomputed = true
		return completeReport(1), nil
	}); cached || !recomputed {
		t.Fatal("least-recently-used k1 should have been evicted")
	}
	if st := c.stats(); st.Evictions == 0 || st.Size > 2 {
		t.Fatalf("stats = %+v; want evictions recorded and size <= capacity", st)
	}
}

func TestCacheDoesNotStoreIncompleteOrFailed(t *testing.T) {
	c := newResultCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := doLocal(c, ctx, "err", true, func() (solver.WireReport, error) {
		return solver.WireReport{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, _, err := doLocal(c, ctx, "partial", true, func() (solver.WireReport, error) {
		return solver.WireReport{Solver: "test", Complete: false}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"err", "partial"} {
		recomputed := false
		if _, _, err := doLocal(c, ctx, key, true, func() (solver.WireReport, error) {
			recomputed = true
			return completeReport(1), nil
		}); err != nil {
			t.Fatal(err)
		}
		if !recomputed {
			t.Fatalf("%s was cached; only complete error-free reports may be", key)
		}
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newResultCache(4)
	const waiters = 15
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	// One computing caller enters first and blocks inside compute.
	var wg sync.WaitGroup
	wg.Add(1)
	var leaderRep solver.WireReport
	var leaderCached bool
	go func() {
		defer wg.Done()
		rep, cached, err := doLocal(c, context.Background(), "hot", true, func() (solver.WireReport, error) {
			calls.Add(1)
			close(started)
			<-gate
			return completeReport(9), nil
		})
		if err != nil {
			t.Error(err)
		}
		leaderRep, leaderCached = rep, cached
	}()
	<-started

	// The waiters join while the flight is provably still open; each
	// increments Coalesced before blocking, so polling the counter makes
	// "everyone is waiting" observable without racing the flight.
	results := make([]solver.WireReport, waiters)
	cachedFlags := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, cached, err := doLocal(c, context.Background(), "hot", true, func() (solver.WireReport, error) {
				calls.Add(1)
				return completeReport(9), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], cachedFlags[i] = rep, cached
		}(i)
	}
	for c.stats().Coalesced < waiters {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrent identical requests; want 1", n)
	}
	if leaderCached || leaderRep.Makespan != 9 {
		t.Fatalf("leader = (%+v, cached %v); want to have computed", leaderRep, leaderCached)
	}
	for i := range results {
		if results[i].Makespan != 9 {
			t.Fatalf("waiter %d got %+v", i, results[i])
		}
		if !cachedFlags[i] {
			t.Fatalf("waiter %d recomputed instead of coalescing", i)
		}
	}
	if st := c.stats(); st.Coalesced != waiters || st.Misses != 1 {
		t.Fatalf("stats = %+v; want %d coalesced waiters on 1 miss", st, waiters)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newResultCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = doLocal(c, context.Background(), "slow", true, func() (solver.WireReport, error) {
			close(started)
			<-gate
			return completeReport(1), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := doLocal(c, ctx, "slow", true, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v; want context.Canceled", err)
	}
	close(gate)
	<-done
}

// TestCacheGetPut pins the non-sharing path deadline-bounded requests
// take: it reads the same LRU, computes on a miss, and stores only
// complete results, under the same eviction.
func TestCacheGetPut(t *testing.T) {
	c := newResultCache(2)
	ctx := context.Background()
	get := func(key string) (solver.WireReport, bool) {
		rep, cached, _ := doLocal(c, ctx, key, false, func() (solver.WireReport, error) {
			return solver.WireReport{}, errors.New("not cached")
		})
		return rep, cached
	}
	put := func(key string, rep solver.WireReport) {
		t.Helper()
		if _, cached, err := doLocal(c, ctx, key, false, func() (solver.WireReport, error) {
			return rep, nil
		}); err != nil || cached {
			t.Fatalf("put %s: cached=%v, err=%v; want a computed miss", key, cached, err)
		}
	}
	if _, ok := get("k"); ok {
		t.Fatal("empty cache must miss")
	}
	put("k", solver.WireReport{Solver: "test", Complete: false})
	if _, ok := get("k"); ok {
		t.Fatal("incomplete reports must not be stored")
	}
	put("k", completeReport(5))
	rep, ok := get("k")
	if !ok || rep.Makespan != 5 {
		t.Fatalf("get after put = (%+v, %v); want the stored report", rep, ok)
	}
	// Non-sharing calls fill the same LRU that sharing ones use: eviction
	// still applies.
	put("k2", completeReport(2))
	put("k3", completeReport(3))
	if _, ok := get("k"); ok {
		t.Fatal("put must evict beyond capacity")
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 7 || st.Evictions != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 7 misses, 1 eviction", st)
	}

	// A sharing call sees entries stored by a non-sharing one.
	if _, cached, err := doLocal(c, ctx, "k3", true, nil); err != nil || !cached {
		t.Fatalf("sharing do must hit an entry stored by a non-sharing one (cached=%v, err=%v)", cached, err)
	}
}

func TestCacheGetDoesNotJoinFlights(t *testing.T) {
	c := newResultCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = doLocal(c, context.Background(), "slow", true, func() (solver.WireReport, error) {
			close(started)
			<-gate
			return completeReport(1), nil
		})
	}()
	<-started
	// A deadline-bounded caller must not block on (or share) the flight:
	// it computes its own answer while the flight is still open.
	ran := false
	if _, cached, _ := doLocal(c, context.Background(), "slow", false, func() (solver.WireReport, error) {
		ran = true
		return solver.WireReport{Solver: "test", Complete: false}, nil
	}); cached || !ran {
		t.Fatalf("non-sharing call joined a still-computing flight (cached=%v, computed=%v)", cached, ran)
	}
	close(gate)
	<-done
	if rep, cached, _ := doLocal(c, context.Background(), "slow", false, nil); !cached || rep.Makespan != 1 {
		t.Fatal("a non-sharing call must see the flight's result once completed and stored")
	}
}

func TestCacheDisabledStillCoalesces(t *testing.T) {
	c := newResultCache(0)
	ctx := context.Background()
	calls := 0
	compute := func() (solver.WireReport, error) {
		calls++
		return completeReport(3), nil
	}
	for i := 0; i < 2; i++ {
		if _, cached, err := doLocal(c, ctx, "k", true, compute); err != nil || cached {
			t.Fatalf("disabled cache must recompute (cached=%v, err=%v)", cached, err)
		}
	}
	if calls != 2 {
		t.Fatalf("calls = %d; want 2 with storage disabled", calls)
	}
	if st := c.stats(); st.Size != 0 || st.Capacity != 0 {
		t.Fatalf("stats = %+v; want empty cache", st)
	}
}
