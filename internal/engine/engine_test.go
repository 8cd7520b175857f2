package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sunmap/internal/apps"
	"sunmap/internal/mapping"
	"sunmap/internal/pool"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

func vopdLib(t *testing.T) []topology.Topology {
	t.Helper()
	lib, err := topology.Library(apps.VOPD().NumCores(), topology.LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) < 4 {
		t.Fatalf("suspiciously small library: %d topologies", len(lib))
	}
	return lib
}

func vopdOpts() mapping.Options {
	return mapping.Options{
		Routing:      route.MinPath,
		Objective:    mapping.MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	}
}

// sameOutcomes asserts two outcome lists agree candidate by candidate.
func sameOutcomes(t *testing.T, got, want []Outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("outcome count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g.Err != nil) != (w.Err != nil) {
			t.Fatalf("outcome %d: err %v, want %v", i, g.Err, w.Err)
		}
		if g.Err != nil {
			continue
		}
		if g.Result.Topology.Name() != w.Result.Topology.Name() {
			t.Fatalf("outcome %d: topology %s, want %s", i, g.Result.Topology.Name(), w.Result.Topology.Name())
		}
		if g.Result.Cost != w.Result.Cost {
			t.Errorf("outcome %d (%s): cost %g, want %g", i, g.Result.Topology.Name(), g.Result.Cost, w.Result.Cost)
		}
		if len(g.Result.Assign) != len(w.Result.Assign) {
			t.Fatalf("outcome %d: assign len %d, want %d", i, len(g.Result.Assign), len(w.Result.Assign))
		}
		for c := range g.Result.Assign {
			if g.Result.Assign[c] != w.Result.Assign[c] {
				t.Errorf("outcome %d (%s): core %d -> %d, want %d",
					i, g.Result.Topology.Name(), c, g.Result.Assign[c], w.Result.Assign[c])
			}
		}
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	app := apps.VOPD()
	lib := vopdLib(t)
	opts := vopdOpts()
	seq, err := Sweep(context.Background(), app, lib, opts, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 8} {
		got, err := Sweep(context.Background(), app, lib, opts, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameOutcomes(t, got, seq)
	}
}

func TestEvaluatePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, apps.VOPD(), vopdLib(t), vopdOpts(), Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEvaluateCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from the progress callback after the first completed job:
	// the remaining evaluations must be abandoned and Sweep must report
	// the cancellation instead of a partial result list.
	_, err := Sweep(ctx, apps.VOPD(), vopdLib(t), vopdOpts(), Options{
		Parallelism: 2,
		Progress:    func(Event) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCacheReuseAcrossSweeps(t *testing.T) {
	app := apps.VOPD()
	lib := vopdLib(t)
	opts := vopdOpts()
	cache := NewCache()
	first, err := Sweep(context.Background(), app, lib, opts, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != uint64(len(lib)) || st.Entries != len(lib) {
		t.Fatalf("after first sweep: stats = %+v, want 0 hits / %d misses / %d entries", st, len(lib), len(lib))
	}

	var hits int
	second, err := Sweep(context.Background(), app, lib, opts, Options{
		Cache: cache,
		Progress: func(ev Event) {
			if ev.CacheHit {
				hits++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != len(lib) {
		t.Errorf("second sweep: %d cache hits, want %d", hits, len(lib))
	}
	if st := cache.Stats(); st.Hits != uint64(len(lib)) || st.Entries != len(lib) {
		t.Errorf("after second sweep: stats = %+v, want %d hits and %d entries", st, len(lib), len(lib))
	}
	sameOutcomes(t, second, first)

	// A different option set misses: the key canonicalization must keep
	// distinct design points distinct.
	bigger := opts
	bigger.CapacityMBps = 2 * opts.CapacityMBps
	if _, err := Sweep(context.Background(), app, lib, bigger, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 2*len(lib) {
		t.Errorf("after option change: %d entries, want %d", st.Entries, 2*len(lib))
	}
}

func TestCacheSharedUnderConcurrency(t *testing.T) {
	// Concurrent sweeps over one cache must be race-free (validated under
	// -race in CI) and end fully populated.
	app := apps.VOPD()
	lib := vopdLib(t)
	opts := vopdOpts()
	cache := NewCache()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Sweep(context.Background(), app, lib, opts, Options{Cache: cache, Parallelism: 2})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != len(lib) {
		t.Errorf("cache entries = %d, want %d", cache.Len(), len(lib))
	}
}

func TestProgressEventsCoverEveryJob(t *testing.T) {
	app := apps.VOPD()
	lib := vopdLib(t)
	seen := make(map[int]int)
	lastDone := 0
	_, err := Sweep(context.Background(), app, lib, vopdOpts(), Options{
		Parallelism: 4,
		Progress: func(ev Event) {
			seen[ev.Index]++
			if ev.Done != lastDone+1 {
				t.Errorf("Done = %d after %d, want monotonically increasing by 1", ev.Done, lastDone)
			}
			lastDone = ev.Done
			if ev.Total != len(lib) {
				t.Errorf("Total = %d, want %d", ev.Total, len(lib))
			}
			if ev.Topology == "" {
				t.Error("event missing topology name")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(lib) {
		t.Fatalf("progress covered %d jobs, want %d", len(seen), len(lib))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("job %d reported %d times", idx, n)
		}
	}
}

// renamed wraps a topology under a fixed, colliding Name.
type renamed struct{ topology.Topology }

func (renamed) Name() string { return "impostor" }

func TestCacheKeySeparatesNameCollisions(t *testing.T) {
	// Two structurally different topologies sharing a Name() must not
	// share a cache entry: the key includes a structural digest.
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewTorus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	lib := []topology.Topology{renamed{mesh}, renamed{torus}}
	out, err := Sweep(context.Background(), apps.VOPD(), lib, vopdOpts(), Options{Cache: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 0 hits and 2 entries for colliding names", st)
	}
	if out[0].Result.AvgHops == out[1].Result.AvgHops && out[0].Result.PowerMW == out[1].Result.PowerMW {
		t.Error("mesh and torus under a shared name returned identical metrics — cache collision?")
	}
}

func TestEvaluateRecordsStructuralErrors(t *testing.T) {
	// A topology with too few terminals must surface as a per-job error,
	// not abort the run, and must be memoized like a success.
	small, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	lib := []topology.Topology{small, big}
	for round := 0; round < 2; round++ {
		out, err := Sweep(context.Background(), apps.VOPD(), lib, vopdOpts(), Options{Cache: cache})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if out[0].Err == nil {
			t.Fatalf("round %d: 2x2 mesh should be unmappable for VOPD", round)
		}
		if out[1].Err != nil || out[1].Result == nil {
			t.Fatalf("round %d: 3x4 mesh failed: %v", round, out[1].Err)
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 hits (error + success memoized) and 2 entries", cache.Stats())
	}
}

// TestFan checks the non-mapping fan-out helper: every unit runs, the
// Limit budget is respected, the first error in index order wins, and
// cancellation preempts unit errors.
func TestFan(t *testing.T) {
	var ran [16]bool
	limit := pool.NewLimiter(2)
	var inFlight, maxInFlight atomic.Int32
	err := Fan(context.Background(), len(ran), Options{Parallelism: 8, Limit: limit}, func(i int) error {
		if n := inFlight.Add(1); n > maxInFlight.Load() {
			maxInFlight.Store(n)
		}
		defer inFlight.Add(-1)
		time.Sleep(time.Millisecond)
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("unit %d never ran", i)
		}
	}
	if maxInFlight.Load() > 2 {
		t.Errorf("%d units in flight, limiter admits 2", maxInFlight.Load())
	}

	wantErr := errors.New("unit 3 broke")
	err = Fan(context.Background(), 8, Options{Parallelism: 4}, func(i int) error {
		if i == 3 {
			return wantErr
		}
		if i == 6 {
			return errors.New("unit 6 broke")
		}
		return nil
	})
	if err != wantErr {
		t.Errorf("Fan returned %v, want the lowest-index error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Fan(ctx, 4, Options{}, func(int) error { return errors.New("ran") }); err != context.Canceled {
		t.Errorf("canceled Fan returned %v, want context.Canceled", err)
	}
}

// TestIntraParallelism pins the resolution rule shared by the outer
// worker pool and the intra-candidate fan-out: explicit values pass
// through, zero and negatives select GOMAXPROCS.
func TestIntraParallelism(t *testing.T) {
	if got := (Options{Parallelism: 3}).IntraParallelism(); got != 3 {
		t.Errorf("IntraParallelism() = %d, want 3", got)
	}
	for _, par := range []int{0, -1} {
		if got := (Options{Parallelism: par}).IntraParallelism(); got != runtime.GOMAXPROCS(0) {
			t.Errorf("Parallelism %d: IntraParallelism() = %d, want GOMAXPROCS (%d)",
				par, got, runtime.GOMAXPROCS(0))
		}
	}
}
