// Package engine is the concurrent evaluation engine underneath SUNMAP's
// selection and exploration flows. Phase 1 of the paper maps the
// application onto every topology in the library independently — an
// embarrassingly parallel sweep. The engine runs those evaluations on a
// bounded worker pool, memoizes them in a content-addressed cache so
// routing escalation and the Fig. 9 explorers never re-map an identical
// design point, streams per-candidate progress to interactive consumers,
// and threads context cancellation down into the mapping inner loops.
//
// Results are deterministic and independent of Parallelism: each job's
// outcome lands at its input index, so consumers observe exactly the
// sequential, library-ordered result list.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/pool"
	"sunmap/internal/topology"
)

// evalSeconds distributes mapping-evaluation wall time process-wide
// (cache hits excluded — they never reach the timed path).
var evalSeconds = obs.Default.Histogram("sunmap_evaluate_seconds", "wall time of one mapping evaluation", nil)

// Job is one evaluation request: map the application onto Topo under Opts.
type Job struct {
	Topo topology.Topology
	Opts mapping.Options
}

// Outcome is one evaluated job. Exactly one of Result and Err is set; Err
// records a hard mapping failure (e.g. too few terminals), mirroring
// core.Candidate.
type Outcome struct {
	Result *mapping.Result
	Err    error
}

// Event is one streaming progress notification, emitted after a job
// finishes (successfully, as a cache hit, or with a mapping error).
type Event struct {
	// Index is the job's position in the submitted job list; Total is the
	// list length. Events arrive in completion order, not index order.
	Index, Total int
	// Done counts finished jobs including this one.
	Done int
	// Topology names the evaluated topology.
	Topology string
	// Routing is the routing function the job ran under.
	Routing string
	// CacheHit marks an evaluation served from the shared cache.
	CacheHit bool
	// Err is the job's mapping error, if any.
	Err error
	// Elapsed is the wall time of this evaluation (≈0 for cache hits).
	Elapsed time.Duration
}

// Progress receives streaming Events. Callbacks are serialized by the
// engine (never concurrent) but run on worker goroutines; they must not
// block for long.
type Progress func(Event)

// ErrPanic marks an Outcome.Err produced by recovering a panic in an
// evaluation, distinguishing genuine internal faults from the ordinary
// structural mapping failures (bad client input) sharing the error slot.
var ErrPanic = errors.New("engine: evaluation panic")

// Options tunes one engine run.
type Options struct {
	// Parallelism bounds the worker pool. 0 (or negative) selects
	// GOMAXPROCS; 1 evaluates sequentially in submission order.
	Parallelism int
	// Cache, when non-nil, memoizes evaluations across runs.
	Cache *Cache
	// Progress, when non-nil, streams per-job completion events.
	Progress Progress
	// Limit, when non-nil, is a shared admission semaphore: each mapping
	// evaluation (cache hits excluded) holds one slot while it runs, so
	// several concurrent engine calls — e.g. the requests of one
	// Session.Batch — share a single session-wide parallelism budget
	// instead of multiplying their pools.
	Limit *pool.Limiter
}

func (o Options) workers(jobs int) int {
	n := o.IntraParallelism()
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// IntraParallelism resolves the configured Parallelism (0 or negative
// selects GOMAXPROCS) to the concrete worker budget an individual job
// may fan its inner work across — e.g. the per-candidate fault-sweep
// scenarios of a reliability-aware selection. Inner workers beyond the
// first admit opportunistically (Limit.TryAcquire), so intra-job fan-out
// borrows idle budget without ever deadlocking the shared limiter.
func (o Options) IntraParallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep maps the application onto every topology in lib under one shared
// option set — SUNMAP Phase 1. Outcomes are returned in library order
// regardless of Parallelism.
func Sweep(ctx context.Context, app *graph.CoreGraph, lib []topology.Topology, opts mapping.Options, eo Options) ([]Outcome, error) {
	jobs := make([]Job, len(lib))
	for i, topo := range lib {
		jobs[i] = Job{Topo: topo, Opts: opts}
	}
	return Evaluate(ctx, app, jobs, eo)
}

// Evaluate runs an arbitrary job list (the generalization behind Sweep,
// the routing sweep and the Pareto explorer) on the bounded pool.
// Outcomes are returned in job order regardless of Parallelism. The first
// context cancellation aborts the run and returns the context's error;
// per-job mapping failures do not abort and are recorded in the outcome.
// Elapsed on progress events is advisory wall time, deliberately outside
// the deterministic report surface; it is read through obs.Now, the
// audited clock source.
func Evaluate(ctx context.Context, app *graph.CoreGraph, jobs []Job, eo Options) ([]Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	rec := obs.FromContext(ctx)
	var digest string
	if eo.Cache != nil {
		digest = app.Digest() // only the cache key consumes it
	}
	out := make([]Outcome, len(jobs))
	workers := eo.workers(len(jobs))

	// Per-worker mapping scratch: each running evaluation borrows a
	// Scratch (routing solver + swap-loop buffers) for its duration, so a
	// library sweep reuses at most `workers` scratch sets instead of
	// allocating routing state per candidate mapping.
	scratch := pool.NewFree(mapping.NewScratch)

	var progressMu sync.Mutex
	done := 0
	emit := func(ev Event) {
		if eo.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		ev.Done = done
		eo.Progress(ev)
		progressMu.Unlock()
	}

	runJob := func(i int) {
		j := jobs[i]
		ev := Event{
			Index:    i,
			Total:    len(jobs),
			Topology: j.Topo.Name(),
			Routing:  j.Opts.Routing.String(),
		}
		var key string
		if eo.Cache != nil {
			key = Key(digest, j.Topo, j.Opts)
			if e, ok := eo.Cache.get(key, j.Topo); ok {
				rec.CacheHit()
				out[i] = Outcome{Result: e.res, Err: e.err}
				ev.CacheHit = true
				ev.Err = e.err
				emit(ev)
				return
			}
			rec.CacheMiss()
		}
		if err := eo.Limit.Acquire(ctx); err != nil {
			return // canceled while queued for a session slot
		}
		start := obs.Now() // after Acquire: Elapsed is evaluation time, not queue wait
		res, err := func() (res *mapping.Result, err error) {
			defer eo.Limit.Release()
			// Worker goroutines must not take the process down: a panic in
			// an evaluation (e.g. on an adversarial input) becomes this
			// job's error outcome, preserving the isolation contract that
			// Session.Do/Batch and the serve layer promise.
			defer func() {
				if r := recover(); r != nil {
					res, err = nil, fmt.Errorf("%w evaluating %s: %v", ErrPanic, j.Topo.Name(), r)
				}
			}()
			sc := scratch.Get()
			defer scratch.Put(sc)
			return mapping.MapContextWith(ctx, app, j.Topo, j.Opts, sc)
		}()
		if ctx.Err() != nil {
			return // canceled mid-map: don't cache or report partial work
		}
		eo.Cache.put(key, entry{res: res, err: err})
		out[i] = Outcome{Result: res, Err: err}
		ev.Err = err
		ev.Elapsed = obs.Since(start)
		rec.Observe(obs.StageEvaluate, ev.Elapsed)
		evalSeconds.ObserveSeconds(int64(ev.Elapsed))
		emit(ev)
	}

	pool.ForEach(ctx, len(jobs), workers, runJob)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fan runs n independent, index-addressed units of non-mapping work
// under the engine's admission contract: up to Parallelism workers, each
// unit holding one Limit slot while it runs, so analysis passes sharing
// a session (e.g. the per-candidate reliability sweeps of a fault-aware
// selection) stay inside the same session-wide budget as the mapping
// evaluations. Unit errors are collected at their index and the first,
// in index order, is returned — deterministic regardless of which worker
// hit it first. Cancellation wins over unit errors, mirroring Evaluate.
func Fan(ctx context.Context, n int, eo Options, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n)
	pool.ForEach(ctx, n, eo.workers(n), func(i int) {
		if err := eo.Limit.Acquire(ctx); err != nil {
			return // canceled while queued; ctx.Err() reported below
		}
		defer eo.Limit.Release()
		errs[i] = fn(i)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
