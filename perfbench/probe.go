package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"sunmap"
	"sunmap/internal/area"
	"sunmap/internal/fault"
	"sunmap/internal/floorplan"
	"sunmap/internal/graph"
	"sunmap/internal/jobs"
	"sunmap/internal/mapping"
	"sunmap/internal/power"
	"sunmap/internal/route"
	"sunmap/internal/search"
	"sunmap/internal/sim"
	"sunmap/internal/synth"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
	"sunmap/internal/xpipes"
	"sunmap/serve"
)

// probeSearch is the annealing search the probe runs on an op's app.
type probeSearch struct {
	budget, restarts int
	seed             int64
	// faultK > 0 adds a k-link survivability axis to the fitness.
	faultK int
}

// probeSpec tells the layer probe what one op asks of each layer. Every
// layer runs on every probed op, so every layer has a figure on every
// workload: the op's own calls, plus one call of each layer the op does
// not use, on the op's app.
type probeSpec struct {
	app      sunmap.AppSpec
	capacity float64
	escalate bool
	synth    bool
	// searchOnly marks an op that searches instead of selecting: the
	// probe maps the search winner under SM (the fault sweep's mapping)
	// and under MP (the simulation's) instead of mapping a library.
	searchOnly    bool
	search        probeSearch
	faultK        int
	faultElements string
	simRates      []float64
}

// layerTotals accumulates the probe's per-layer work and time.
type layerTotals struct {
	ops int

	maps, usefulMaps, swaps int
	mapT, searchT           time.Duration

	mpT, splitT time.Duration
	commodities int

	floorplanT         time.Duration
	floorplanCalls     int
	areaT, powerT      time.Duration
	libraryT, synthT   time.Duration
	libraryN, synthN   int
	xpipesT            time.Duration
	xpipesBytes        int
	searchRunT         time.Duration
	evals, accepted    int
	faultT             time.Duration
	scenarios          int
	simT               time.Duration
	simCycles, simPkts int
	parseT             time.Duration
	parses             int
	serveOverheadT     time.Duration
	handlerCalls, shed int
	submitT, jobRunT   time.Duration
	jobWaitT           time.Duration
	jobsRun            int
}

// prober decomposes ops into direct calls of each layer's public
// function, timing each call as a span.
type prober struct {
	rec  *spanRecorder
	tech tech.Tech
	sc   *mapping.Scratch
	fp   *floorplan.Planner
	sw   *fault.Sweeper
	tot  layerTotals
}

func newProber(rec *spanRecorder) *prober {
	return &prober{
		rec: rec, tech: tech.Tech100nm(),
		sc: mapping.NewScratch(), fp: floorplan.NewPlanner(), sw: fault.NewSweeper(),
	}
}

// span runs f inside a span and adds its duration to *acc.
func (p *prober) span(op, parent int, name string, acc *time.Duration, f func()) time.Duration {
	s := p.rec.start(op, parent, name)
	f()
	d := s.end()
	if acc != nil {
		*acc += d
	}
	return d
}

func (p *prober) mapOptions(fn route.Function, capMBps float64) mapping.Options {
	return mapping.Options{Routing: fn, Objective: mapping.MinDelay, CapacityMBps: capMBps, Tech: p.tech}
}

// op probes one op: topology library, synthesis, mapping with a replay
// of each final evaluation, generation, fault sweep, simulation and
// search.
func (p *prober) op(ctx context.Context, op int, spec probeSpec) error {
	root := p.rec.start(op, 0, "op")
	defer root.end()
	parent := root.id
	p.tot.ops++
	g, err := coreGraph(spec.app)
	if err != nil {
		return err
	}
	var lib, cands []topology.Topology
	p.span(op, parent, "topology.Library", &p.tot.libraryT, func() {
		lib, err = topology.Library(g.NumCores(), topology.LibraryOptions{})
	})
	if err != nil {
		return err
	}
	p.tot.libraryN += len(lib)
	p.span(op, parent, "synth.Candidates", &p.tot.synthT, func() {
		cands, err = synth.Candidates(g, synth.Options{})
	})
	if err != nil {
		return err
	}
	p.tot.synthN += len(cands)

	var design, simDesign *mapping.Result
	designFn := route.MinPath
	searchOpts := p.searchOptions(spec.search)
	if spec.searchOnly {
		res, err := p.search(ctx, op, parent, g, searchOpts)
		if err != nil {
			return err
		}
		topo := res.Best.Evaluated.Topology
		designFn = route.SplitMin
		if design, err = p.mapOne(ctx, op, parent, g, topo, p.mapOptions(designFn, spec.capacity)); err != nil {
			return err
		}
		if simDesign, err = p.mapOne(ctx, op, parent, g, topo, p.mapOptions(route.MinPath, spec.capacity)); err != nil {
			return err
		}
	} else {
		pool := lib
		if spec.synth {
			pool = append(append([]topology.Topology(nil), lib...), cands...)
		}
		if design, designFn, err = p.selectDesign(ctx, op, parent, g, spec, pool); err != nil {
			return err
		}
		simDesign = design
		if _, err := p.search(ctx, op, parent, g, searchOpts); err != nil {
			return err
		}
	}
	p.span(op, parent, "xpipes.Generate", &p.tot.xpipesT, func() {
		var out *xpipes.Output
		if out, err = xpipes.Generate(g, design, p.tech); err == nil {
			for _, c := range out.Files {
				p.tot.xpipesBytes += len(c)
			}
		}
	})
	if err != nil {
		return err
	}
	if err := p.fault(ctx, op, parent, g, design, designFn, spec); err != nil {
		return err
	}
	return p.simulate(ctx, op, parent, g, simDesign, spec.simRates)
}

// selectDesign maps the app onto every candidate under MP and, when the
// op escalates, then under SM and SA until one is feasible; it returns
// the lowest-cost feasible design with the function that found it.
func (p *prober) selectDesign(ctx context.Context, op, parent int, g *graph.CoreGraph, spec probeSpec, cands []topology.Topology) (*mapping.Result, route.Function, error) {
	fns := []route.Function{route.MinPath}
	if spec.escalate {
		fns = append(fns, route.SplitMin, route.SplitAll)
	}
	for _, f := range fns {
		var best *mapping.Result
		for _, topo := range cands {
			if g.NumCores() > topo.NumTerminals() {
				continue // selection records these as per-topology errors
			}
			res, err := p.mapOne(ctx, op, parent, g, topo, p.mapOptions(f, spec.capacity))
			if err != nil {
				return nil, f, err
			}
			if res.Feasible() && (best == nil || res.Cost < best.Cost) {
				best = res
			}
		}
		if best != nil {
			return best, f, nil
		}
	}
	return nil, route.MinPath, fmt.Errorf("probe: nothing feasible for %s", g.Name())
}

// mapOne maps the app onto topo and replays the final evaluation layer
// by layer; mapping search time is the map time minus that replay.
func (p *prober) mapOne(ctx context.Context, op, parent int, g *graph.CoreGraph, topo topology.Topology, opts mapping.Options) (*mapping.Result, error) {
	var res *mapping.Result
	var err error
	d := p.span(op, parent, "mapping.MapContextWith", &p.tot.mapT, func() {
		res, err = mapping.MapContextWith(ctx, g, topo, opts, p.sc)
	})
	if err != nil {
		return nil, err
	}
	p.tot.maps++
	p.tot.swaps += res.SwapsApplied
	if res.Feasible() {
		p.tot.usefulMaps++
	}
	replay, err := p.replay(op, parent, g, res, opts)
	if err != nil {
		return nil, err
	}
	p.tot.searchT += d - replay
	return res, nil
}

// replay re-runs a design's final evaluation — route, switch and link
// area, LP floorplan, power — and returns its time. It then routes the
// same assignment under the other routing family (MP for a split
// design, SM for a single-path one), so both routing costs are measured
// on every design.
func (p *prober) replay(op, parent int, g *graph.CoreGraph, res *mapping.Result, opts mapping.Options) (time.Duration, error) {
	topo, assign, t := res.Topology, res.Assign, p.tech
	comms := g.Commodities()
	own := opts.RouteOptions()
	var rt *route.Result
	var err error
	total := p.routeSpan(op, parent, own, func() { rt, err = route.Route(topo, assign, comms, own) })
	if err != nil {
		return 0, err
	}
	p.tot.commodities += len(comms)
	var cfgs []area.SwitchConfig
	var swAreas []float64
	total += p.span(op, parent, "area", &p.tot.areaT, func() {
		cfgs = area.SwitchConfigs(topo, assign, t)
		swAreas = make([]float64, len(cfgs))
		for i, c := range cfgs {
			swAreas[i] = area.SwitchAreaMM2(c, t)
		}
	})
	var fp *floorplan.Result
	total += p.span(op, parent, "floorplan.Planner.Floorplan", &p.tot.floorplanT, func() {
		fp, err = p.fp.Floorplan(topo, assign, g.Cores(), swAreas, opts.Floorplan)
	})
	if err != nil {
		return 0, err
	}
	p.tot.floorplanCalls++
	total += p.span(op, parent, "area", &p.tot.areaT, func() { area.LinkAreaMM2(fp.LinkLengthsMM, t) })
	total += p.span(op, parent, "power", &p.tot.powerT, func() {
		_, err = power.NetworkPowerBreakdown(cfgs, rt.RouterLoads, rt.LinkLoads, fp.LinkLengthsMM, t)
	})
	if err != nil {
		return 0, err
	}
	other := own
	if own.Function == route.SplitMin || own.Function == route.SplitAll {
		other.Function = route.MinPath
	} else {
		other.Function = route.SplitMin
	}
	p.routeSpan(op, parent, other, func() { _, err = route.Route(topo, assign, comms, other) })
	return total, err
}

// routeSpan times one route.Route call as single-path or split routing.
func (p *prober) routeSpan(op, parent int, o route.Options, f func()) time.Duration {
	if o.Function == route.SplitMin || o.Function == route.SplitAll {
		return p.span(op, parent, "route.Route/split", &p.tot.splitT, f)
	}
	return p.span(op, parent, "route.Route/single", &p.tot.mpT, f)
}

func (p *prober) searchOptions(s probeSearch) search.Options {
	o := search.Options{
		Budget: s.budget, Restarts: s.restarts, Seed: s.seed,
		Mapping: p.mapOptions(route.MinPath, 0), Parallelism: 1,
	}
	if s.faultK > 0 {
		o.Fault = &fault.Model{K: s.faultK, Elements: fault.Links}
	}
	return o
}

func (p *prober) search(ctx context.Context, op, parent int, g *graph.CoreGraph, opts search.Options) (*search.Result, error) {
	var res *search.Result
	var err error
	p.span(op, parent, "search.Run", &p.tot.searchRunT, func() { res, err = search.Run(ctx, g, opts) })
	if err != nil {
		return nil, err
	}
	p.tot.evals += res.Evaluations
	p.tot.accepted += res.Accepted
	return res, nil
}

// fault sweeps the design's failure scenarios in degraded mode.
func (p *prober) fault(ctx context.Context, op, parent int, g *graph.CoreGraph, design *mapping.Result, fn route.Function, spec probeSpec) error {
	el, err := fault.ParseElements(spec.faultElements)
	if err != nil {
		return err
	}
	scen, exhaustive, err := fault.Scenarios(design.Topology, fault.Model{K: spec.faultK, Elements: el})
	if err != nil {
		return err
	}
	ropts := route.Options{Function: fn, CapacityMBps: spec.capacity}
	p.span(op, parent, "fault.Sweeper.SweepContext", &p.tot.faultT, func() {
		_, err = p.sw.SweepContext(ctx, design.Topology, design.Assign, g.Commodities(), fault.Degraded(ropts), scen, exhaustive, 1, nil)
	})
	p.tot.scenarios += len(scen)
	return err
}

// simulate runs the trace-driven simulation of the design at each rate.
func (p *prober) simulate(ctx context.Context, op, parent int, g *graph.CoreGraph, design *mapping.Result, rates []float64) error {
	var routes *sim.RouteTable
	var tr *traffic.Trace
	var err error
	p.span(op, parent, "sim.setup", nil, func() {
		if routes, err = sim.BuildRoutesFromResult(design.Topology, design.Assign, design.Route); err == nil {
			tr, err = traffic.NewTrace(g, design.Assign)
		}
	})
	if err != nil {
		return err
	}
	for _, rate := range rates {
		var st *sim.Stats
		p.span(op, parent, "sim.RunContext", &p.tot.simT, func() {
			st, err = sim.RunContext(ctx, sim.Config{
				Topo: design.Topology, Routes: routes, Pattern: tr, SourceShare: tr.SourceShare(),
				ActiveTerminals: design.Assign, InjectionRate: rate, Seed: int64(op),
			})
		})
		if err != nil {
			return err
		}
		p.tot.simCycles += st.Cycles
		p.tot.simPkts += st.MeasuredPackets
	}
	return nil
}

// serveReps is how many times the serve probe repeats each request.
const serveReps = 20

// serve times ParseRequest, a direct Session.Do and the serve handler on
// the same warmed request; the handler's overhead is the difference of
// the two medians. The handler's body must equal the direct report.
func (p *prober) serve(ctx context.Context, op int, s *sunmap.Session, h http.Handler, req sunmap.Request) error {
	root := p.rec.start(op, 0, "serve-probe")
	defer root.end()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if rep := s.Do(ctx, req); rep.Err() != nil {
		return rep.Err()
	}
	var direct, handler []float64
	var want []byte
	for k := 0; k < serveReps; k++ {
		var parsed *sunmap.Request
		p.span(op, root.id, "sunmap.ParseRequest", &p.tot.parseT, func() { parsed, err = sunmap.ParseRequest(body) })
		if err != nil {
			return err
		}
		p.tot.parses++
		var rep sunmap.Report
		d := p.span(op, root.id, "sunmap.Session.Do", nil, func() { rep = s.Do(ctx, *parsed) })
		direct = append(direct, ms(d))
		rr := httptest.NewRecorder()
		d = p.span(op, root.id, "serve.Handler", nil, func() {
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/do", bytes.NewReader(body)))
		})
		handler = append(handler, ms(d))
		p.tot.handlerCalls++
		if rr.Code == http.StatusTooManyRequests || rr.Code == http.StatusServiceUnavailable {
			p.tot.shed++
			continue
		}
		if want == nil {
			if want, err = servedBytes(rep); err != nil {
				return err
			}
		}
		if !bytes.Equal(rr.Body.Bytes(), want) {
			return fmt.Errorf("serve probe: handler body differs from a direct Session.Do")
		}
	}
	p.tot.serveOverheadT += time.Duration((medianOf(handler) - medianOf(direct)) * float64(time.Millisecond))
	return nil
}

// jobProbe is a job store whose runner executes requests on a session
// and notes when each run starts and ends.
type jobProbe struct {
	store *jobs.Store
	dir   string
	mu    sync.Mutex
	start map[string]time.Time
	end   map[string]time.Time
}

func openJobProbe(ctx context.Context, outDir string, s *sunmap.Session) (*jobProbe, error) {
	dir, err := os.MkdirTemp(outDir, "probe-jobs-")
	if err != nil {
		return nil, err
	}
	jp := &jobProbe{dir: dir, start: map[string]time.Time{}, end: map[string]time.Time{}}
	run := func(ctx context.Context, kind string, payload []byte, _ *jobs.Checkpoint) ([]byte, error) {
		key := string(payload)
		jp.mu.Lock()
		jp.start[key] = time.Now()
		jp.mu.Unlock()
		req, err := sunmap.ParseRequest(payload)
		if err != nil {
			return nil, err
		}
		out, err := json.Marshal(s.Do(ctx, *req))
		jp.mu.Lock()
		jp.end[key] = time.Now()
		jp.mu.Unlock()
		return out, err
	}
	jp.store, err = jobs.Open(ctx, jobs.Options{Dir: dir, Workers: 1, Logger: quietLog}, run)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return jp, nil
}

// run submits req (an fsync'd journal append) and waits for its result.
// Queue wait runs from the submit call to the runner's start.
func (jp *jobProbe) run(ctx context.Context, p *prober, op int, req sunmap.Request) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	root := p.rec.start(op, 0, "jobs-probe")
	defer root.end()
	var jb jobs.Job
	submitted := time.Now()
	p.span(op, root.id, "jobs.Store.Submit", &p.tot.submitT, func() { jb, err = jp.store.Submit(ctx, req.Op, payload) })
	if err != nil {
		return err
	}
	p.span(op, root.id, "jobs.Store.Wait", nil, func() { jb, err = jp.store.Wait(ctx, jb.ID) })
	if err != nil {
		return err
	}
	if jb.State != jobs.StateDone {
		return fmt.Errorf("probe job %s ended %s: %s", jb.ID, jb.State, jb.Error)
	}
	jp.mu.Lock()
	start, end := jp.start[string(payload)], jp.end[string(payload)]
	jp.mu.Unlock()
	p.tot.jobWaitT += start.Sub(submitted)
	p.tot.jobRunT += end.Sub(start)
	p.tot.jobsRun++
	return nil
}

func (jp *jobProbe) close() error {
	err := jp.store.Close()
	if rerr := os.RemoveAll(jp.dir); err == nil {
		err = rerr
	}
	return err
}

// newProbeHandler is the serve handler the probe drives, without a job
// store and with a silent logger.
func newProbeHandler(s *sunmap.Session) http.Handler {
	return serve.NewHandler(s, serve.Options{Logger: quietLog})
}
