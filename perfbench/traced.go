package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"sunmap"
)

// layerMetric is one per-layer metric of the traced run and the
// end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists the traced run's metrics in print order.
var layerMetrics = []layerMetric{
	{"mapping.maps", "count", "latency_p50_ms, latency_tail_ms, ops_per_s on corpus-scale; little change on paper-flow"},
	{"mapping.map_ms", "ms", "latency_p50_ms, latency_tail_ms, ops_per_s on corpus-scale; little change on paper-flow"},
	{"mapping.swaps_applied", "count", "latency_p50_ms, latency_tail_ms, ops_per_s on corpus-scale; little change on paper-flow"},
	{"mapping.feasible_frac", "frac", "latency_p50_ms, latency_tail_ms, ops_per_s on corpus-scale; little change on paper-flow"},
	{"mapping.search_ms", "ms", "latency_p50_ms, latency_tail_ms, ops_per_s on corpus-scale; little change on paper-flow"},
	{"route.mp_ms", "ms", "latency_p50_ms, latency_tail_ms on corpus-scale"},
	{"route.commodities", "count", "latency_p50_ms, latency_tail_ms on corpus-scale"},
	{"route.split_ms", "ms", "latency_tail_ms on paper-flow (mpeg4 escalates to SM)"},
	{"core.escalation_rungs", "count", "latency_tail_ms on paper-flow"},
	{"core.escalated_frac", "frac", "latency_tail_ms on paper-flow"},
	{"engine.evaluations", "count", "ops_per_s on paper-flow and corpus-scale"},
	{"engine.evaluate_ms", "ms", "ops_per_s on paper-flow and corpus-scale"},
	{"engine.limiter_wait_ms", "ms", "ops_per_s on paper-flow and corpus-scale"},
	{"engine.blocked_acquires", "count", "ops_per_s on paper-flow and corpus-scale"},
	{"engine.try_hit_frac", "frac", "ops_per_s on paper-flow and corpus-scale"},
	{"engine.speedup", "x", "ops_per_s on paper-flow and corpus-scale"},
	{"engine.cache_hit_frac", "frac", "latency_p50_ms on served-mix"},
	{"floorplan.ms", "ms", "latency_p50_ms on paper-flow"},
	{"floorplan.calls", "count", "latency_p50_ms on paper-flow"},
	{"area.ms", "ms", "latency_p50_ms on paper-flow"},
	{"power.ms", "ms", "latency_p50_ms on paper-flow"},
	{"topology.library_ms", "ms", "latency_p50_ms and setup_s on paper-flow"},
	{"topology.candidates", "count", "latency_p50_ms and setup_s on paper-flow"},
	{"synth.ms", "ms", "latency_p50_ms and setup_s on paper-flow"},
	{"synth.candidates", "count", "latency_p50_ms and setup_s on paper-flow"},
	{"xpipes.generate_ms", "ms", "latency_p50_ms on paper-flow"},
	{"xpipes.bytes", "B", "latency_p50_ms on paper-flow"},
	{"search.run_ms", "ms", "ops_per_s and design_cost_geomean on search-fault"},
	{"search.evals_per_s", "1/s", "ops_per_s and design_cost_geomean on search-fault"},
	{"search.accept_frac", "frac", "ops_per_s and design_cost_geomean on search-fault"},
	{"fault.sweep_ms", "ms", "latency_p50_ms on search-fault"},
	{"fault.scenarios", "count", "latency_p50_ms on search-fault"},
	{"fault.us_per_scenario", "us", "latency_p50_ms on search-fault"},
	{"sim.run_ms", "ms", "latency_tail_ms on search-fault"},
	{"sim.cycles_per_s", "1/s", "latency_tail_ms on search-fault"},
	{"sim.packets", "count", "latency_tail_ms on search-fault"},
	{"sunmap.parse_ms", "ms", "latency_p50_ms on served-mix"},
	{"serve.overhead_ms", "ms", "latency_p50_ms on served-mix"},
	{"serve.shed_frac", "frac", "ok_frac on served-mix"},
	{"jobs.submit_ms", "ms", "latency_tail_ms on served-mix"},
	{"jobs.run_ms", "ms", "latency_tail_ms on served-mix"},
	{"jobs.queue_wait_ms", "ms", "latency_tail_ms on served-mix"},
	{"runtime.alloc_mb_per_op", "MB", "peak_rss_mb and latency_tail_ms on corpus-scale"},
	{"runtime.gc_cpu_frac", "frac", "peak_rss_mb and latency_tail_ms on corpus-scale"},
	{"runtime.heap_peak_mb", "MB", "peak_rss_mb and latency_tail_ms on corpus-scale"},
	{"trace.overhead_frac", "frac", "traced versus untraced latency_p50_ms"},
	{"trace.unattributed_frac", "frac", "share of probed op time no layer span covers"},
}

// runTraced is the traced layer run. A twin loop runs every op on an
// untraced and on a traced session (alternating which goes first), which
// gives the trace overhead, the session's engine counters and the Go
// runtime figures; the layer probe then decomposes the first ops into
// timed calls of each layer's public function; the serve and jobs probes
// time the front end; and the fixed cycle runs at parallelism 1 and
// nproc for the speedup and the parallelism digest check.
func runTraced(ctx context.Context, cfg config, e *env, w *workload, out io.Writer, failures []string) (res *result, err error) {
	rec := newSpanRecorder()
	untraced, err := openTarget(ctx, w, e, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, untraced.close()) }()
	tr := sunmap.NewTrace()
	traced, err := openTarget(ctx, w, e, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, traced.close()) }()

	tw := runTwins(ctx, rec, w, clients(w, e), untraced, traced, tr, cfg.dur)
	outsU, failed, failures := checkAll(ctx, w, untraced, tw.untraced, failures)
	outsT, tFailed, failures := checkAll(ctx, w, traced, tw.traced, failures)
	failed += tFailed
	for i := range outsT {
		if digest(outsT[i].reports) != digest(outsU[i].reports) {
			failed++
			failures = append(failures, fmt.Sprintf("op %d: traced report differs from untraced", i))
		}
	}

	p := newProber(rec)
	if err := probeLayers(ctx, e, w, p); err != nil {
		failures = append(failures, "layer probe: "+err.Error())
	}
	for _, twin := range []target{untraced, traced} {
		if st, ok := twin.(*servedTarget); ok {
			p.tot.shed += int(st.shed.Load())
			p.tot.handlerCalls += int(st.requests.Load())
		}
	}

	d1, t1, err1 := runCycle(ctx, w, 1)
	dN, tN, errN := runCycle(ctx, w, e.nproc)
	switch {
	case err1 != nil || errN != nil:
		failures = append(failures, fmt.Sprintf("cycle: %v", errors.Join(err1, errN)))
	case d1 != dN:
		failures = append(failures, fmt.Sprintf("results digest at parallelism 1 (%s) differs from %d (%s)", d1, e.nproc, dN))
	}
	printJSON(out, "digests", map[string]any{"cycle_ops": w.cycle, "results_p1": d1, fmt.Sprintf("results_p%d", e.nproc): dN})

	spans := rec.all()
	path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, e.stamp, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans %s (%d spans)\n", path, len(spans))
	selfMS := map[string]float64{}
	for name, d := range selfTimes(spans) {
		selfMS[name] = ms(d)
	}
	printJSON(out, "self_ms", selfMS)

	vals := layerValues(p.tot, tw, outsT, spans, t1, tN)
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		v := vals[lm.name]
		m[lm.name] = metric{v, lm.unit}
		fmt.Fprintf(out, "layer %-24s %14.6g %-5s moves %s\n", lm.name, v, lm.unit, lm.moves)
	}
	printFailures(out, failures)
	return &result{
		Correct:   len(failures) == 0,
		Attempted: 2 * len(tw.traced),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// twins is the outcome of the twin loop.
type twins struct {
	untraced, traced []opRecord
	snap             sunmap.TraceSnapshot
	rt               runtimeFigures
}

// runTwins runs every op of a closed loop with the workload's client
// count on both targets, one right after the other, alternating which
// side goes first.
func runTwins(ctx context.Context, rec *spanRecorder, w *workload, clients int, untraced, traced target, tr *sunmap.Trace, dur time.Duration) twins {
	var mu sync.Mutex
	tracedRecs := map[int]opRecord{}
	runSide := func(t target, i int, name string) opRecord {
		s := rec.start(i, 0, name)
		defer s.end()
		return t.op(ctx, i)
	}
	twin := func(ctx context.Context, i int) opRecord {
		var u, t opRecord
		if i%2 == 0 {
			u = runSide(untraced, i, "twin.untraced")
			t = runSide(traced, i, "twin.traced")
		} else {
			t = runSide(traced, i, "twin.traced")
			u = runSide(untraced, i, "twin.untraced")
		}
		mu.Lock()
		tracedRecs[i] = t
		mu.Unlock()
		return u
	}
	before := tr.Snapshot()
	rs := startRuntimeSampler()
	var tw twins
	tw.untraced, _ = closedLoop(ctx, twin, w, clients, dur)
	tw.rt = rs.stop()
	tw.snap = subSnapshot(tr.Snapshot(), before)
	for _, u := range tw.untraced {
		tw.traced = append(tw.traced, tracedRecs[u.index])
	}
	return tw
}

// subSnapshot is the trace activity between two snapshots.
func subSnapshot(a, b sunmap.TraceSnapshot) sunmap.TraceSnapshot {
	d := a
	d.Stages = nil
	for _, st := range a.Stages {
		for _, old := range b.Stages {
			if old.Stage == st.Stage {
				st.Count -= old.Count
				st.Nanos -= old.Nanos
			}
		}
		d.Stages = append(d.Stages, st)
	}
	d.CacheHits -= b.CacheHits
	d.CacheMisses -= b.CacheMisses
	d.TryHits -= b.TryHits
	d.TryMisses -= b.TryMisses
	d.Blocked -= b.Blocked
	d.WaitNanos -= b.WaitNanos
	return d
}

func stage(s sunmap.TraceSnapshot, name string) (count uint64, nanos int64) {
	for _, st := range s.Stages {
		if st.Stage == name {
			return st.Count, st.Nanos
		}
	}
	return 0, 0
}

// probeLayers runs the layer probe, then the serve and jobs probes, on
// the workload's first probeOps ops.
func probeLayers(ctx context.Context, e *env, w *workload, p *prober) (err error) {
	for i := 0; i < w.probeOps; i++ {
		if err := p.op(ctx, i, w.probe(i)); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	s, err := sunmap.NewSession(sunmap.WithParallelism(e.nproc))
	if err != nil {
		return err
	}
	jp, err := openJobProbe(ctx, e.outDir, s)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, jp.close()) }()
	h := newProbeHandler(s)
	for i := 0; i < w.probeOps; i++ {
		spec := w.probe(i)
		req := selectReq(spec.app)
		req.Select.Mapping.CapacityMBps = spec.capacity
		req.Select.Escalate = spec.escalate
		if spec.synth {
			req.Select.Synth = &sunmap.SynthSpec{}
		}
		if err := p.serve(ctx, i, s, h, req); err != nil {
			return fmt.Errorf("serve probe %d: %w", i, err)
		}
		job := sunmap.Request{Op: sunmap.OpSearch, Search: &sunmap.SearchRequest{
			App:    spec.app,
			Search: sunmap.SearchOptions{Budget: spec.search.budget, Restarts: spec.search.restarts, Seed: spec.search.seed},
		}}
		if err := jp.run(ctx, p, i, job); err != nil {
			return fmt.Errorf("jobs probe %d: %w", i, err)
		}
	}
	return nil
}

// runCycle runs the fixed input cycle on a fresh session of the given
// parallelism and returns the digest of its reports and its wall time.
func runCycle(ctx context.Context, w *workload, parallelism int) (string, time.Duration, error) {
	s, err := sunmap.NewSession(sunmap.WithParallelism(parallelism))
	if err != nil {
		return "", 0, err
	}
	var reps [][]sunmap.Report
	start := time.Now()
	for i := 0; i < w.cycle; i++ {
		r, err := w.do(ctx, s, i)
		if err != nil {
			return "", 0, fmt.Errorf("op %d: %w", i, err)
		}
		reps = append(reps, r)
	}
	return digest(reps), time.Since(start), nil
}

// layerValues computes every per-layer metric.
func layerValues(t layerTotals, tw twins, outsT []outcome, spans []span, t1, tN time.Duration) map[string]float64 {
	ops := float64(max(t.ops, 1))
	per := func(d time.Duration) float64 { return ms(d) / ops }
	n := float64(len(tw.traced))
	evals, evalNanos := stage(tw.snap, "evaluate")
	rungs, escalated, selects := escalationCounts(outsT)
	return map[string]float64{
		"mapping.maps":            float64(t.maps) / ops,
		"mapping.map_ms":          per(t.mapT),
		"mapping.swaps_applied":   float64(t.swaps) / ops,
		"mapping.feasible_frac":   ratio(float64(t.usefulMaps), float64(t.maps)),
		"mapping.search_ms":       per(t.searchT),
		"route.mp_ms":             per(t.mpT),
		"route.commodities":       float64(t.commodities) / ops,
		"route.split_ms":          per(t.splitT),
		"core.escalation_rungs":   ratio(float64(rungs), float64(selects)),
		"core.escalated_frac":     ratio(float64(escalated), float64(selects)),
		"engine.evaluations":      float64(evals) / n,
		"engine.evaluate_ms":      float64(evalNanos) / 1e6 / n,
		"engine.limiter_wait_ms":  float64(tw.snap.WaitNanos) / 1e6 / n,
		"engine.blocked_acquires": float64(tw.snap.Blocked) / n,
		"engine.try_hit_frac":     ratio(float64(tw.snap.TryHits), float64(tw.snap.TryHits+tw.snap.TryMisses)),
		"engine.speedup":          ratio(float64(t1), float64(tN)),
		"engine.cache_hit_frac":   ratio(float64(tw.snap.CacheHits), float64(tw.snap.CacheHits+tw.snap.CacheMisses)),
		"floorplan.ms":            per(t.floorplanT),
		"floorplan.calls":         float64(t.floorplanCalls) / ops,
		"area.ms":                 per(t.areaT),
		"power.ms":                per(t.powerT),
		"topology.library_ms":     per(t.libraryT),
		"topology.candidates":     float64(t.libraryN) / ops,
		"synth.ms":                per(t.synthT),
		"synth.candidates":        float64(t.synthN) / ops,
		"xpipes.generate_ms":      per(t.xpipesT),
		"xpipes.bytes":            float64(t.xpipesBytes) / ops,
		"search.run_ms":           per(t.searchRunT),
		"search.evals_per_s":      ratio(float64(t.evals), t.searchRunT.Seconds()),
		"search.accept_frac":      ratio(float64(t.accepted), float64(t.evals)),
		"fault.sweep_ms":          per(t.faultT),
		"fault.scenarios":         float64(t.scenarios) / ops,
		"fault.us_per_scenario":   ratio(float64(t.faultT)/1e3, float64(t.scenarios)),
		"sim.run_ms":              per(t.simT),
		"sim.cycles_per_s":        ratio(float64(t.simCycles), t.simT.Seconds()),
		"sim.packets":             float64(t.simPkts) / ops,
		"sunmap.parse_ms":         ratio(ms(t.parseT), float64(t.parses)),
		"serve.overhead_ms":       per(t.serveOverheadT),
		"serve.shed_frac":         ratio(float64(t.shed), float64(t.handlerCalls)),
		"jobs.submit_ms":          ratio(ms(t.submitT), float64(t.jobsRun)),
		"jobs.run_ms":             ratio(ms(t.jobRunT), float64(t.jobsRun)),
		"jobs.queue_wait_ms":      ratio(ms(t.jobWaitT), float64(t.jobsRun)),
		"runtime.alloc_mb_per_op": tw.rt.allocBytes / (1 << 20) / (2 * n),
		"runtime.gc_cpu_frac":     tw.rt.gcCPUFrac,
		"runtime.heap_peak_mb":    tw.rt.heapPeakBytes / (1 << 20),
		"trace.overhead_frac":     pairedOverhead(tw),
		"trace.unattributed_frac": unattributedFrac(spans, "op"),
	}
}

// pairedOverhead is the median over ops of the traced to untraced
// latency ratio, minus 1: the traced run's latency_p50_ms cost, paired
// op by op so the mix of light and heavy ops cancels.
func pairedOverhead(tw twins) float64 {
	var r []float64
	for i := range tw.traced {
		r = append(r, ratio(float64(tw.traced[i].latency), float64(tw.untraced[i].latency)))
	}
	return medianOf(r) - 1
}

// escalationCounts counts, over the select ops, the routing rungs climbed past
// the requested MP and the ops that escalated at all.
func escalationCounts(outs []outcome) (rungs, escalated, selects int) {
	rank := map[string]int{"DO": 0, "MP": 1, "SM": 2, "SA": 3}
	for _, r := range outs {
		if len(r.reports) == 0 || r.reports[0].Select == nil {
			continue
		}
		selects++
		if k := rank[r.reports[0].Select.RoutingUsed] - rank["MP"]; k > 0 {
			rungs += k
			escalated++
		}
	}
	return rungs, escalated, selects
}

// runtimeFigures are the Go runtime's figures over the twin loop.
type runtimeFigures struct {
	allocBytes    float64
	gcCPUFrac     float64
	heapPeakBytes float64
}

// runtimeSampler tracks the live heap while the twin loop runs.
type runtimeSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   float64
	start  []metrics.Sample
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

// sampleEvery is the live-heap sampling period.
const sampleEvery = 5 * time.Millisecond

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stopCh: make(chan struct{}), start: readRuntime()}
	rs.peak = value(rs.start[3])
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		probe := []metrics.Sample{{Name: runtimeNames[3]}}
		for {
			select {
			case <-rs.stopCh:
				return
			case <-tick.C:
				metrics.Read(probe)
				rs.peak = max(rs.peak, value(probe[0]))
			}
		}
	}()
	return rs
}

// stop ends sampling, waits for the sampler, and returns the figures.
func (rs *runtimeSampler) stop() runtimeFigures {
	close(rs.stopCh)
	rs.wg.Wait()
	end := readRuntime()
	d := func(i int) float64 { return value(end[i]) - value(rs.start[i]) }
	return runtimeFigures{
		allocBytes:    d(0),
		gcCPUFrac:     ratio(d(1), d(2)),
		heapPeakBytes: max(rs.peak, value(end[3])),
	}
}
