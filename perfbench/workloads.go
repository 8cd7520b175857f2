package main

import (
	"context"
	"fmt"
	"math/rand"

	"sunmap"
)

// sizes scales a workload's inputs. The full sizes are the benchmark's;
// the tiny ones keep the smoke tests fast.
type sizes struct {
	corpus       []int // corpus-scale core counts, one per round in order
	searchCores  int
	searchBudget int
	mixCores     int
	jobBudget    int
	simRates     []float64
}

var (
	fullSizes = sizes{
		corpus: []int{16, 32, 64}, searchCores: 20, searchBudget: 20000,
		mixCores: 12, jobBudget: 2000, simRates: []float64{0.05, 0.1},
	}
	tinySizes = sizes{
		corpus: []int{6, 8, 10}, searchCores: 8, searchBudget: 400,
		mixCores: 6, jobBudget: 200, simRates: []float64{0.05},
	}
)

// paperRound is one paper-flow round. The two apps whose selection does
// the real work (mpeg4 escalates to split routing; netproc has 16 cores)
// appear twice, so the median op lands inside that group instead of in
// the gap between it and the light apps (dsp, vopd), where it would
// jump between the two groups from run to run.
var paperRound = []string{"vopd", "mpeg4", "netproc", "dsp", "mpeg4", "netproc"}

// paperApps are the paper's applications, the first four ops of a round.
var paperApps = paperRound[:4]

const (
	// hotPoints is the served-mix hot set size.
	hotPoints = 8
	// Served-mix shares: the rest of the ops are job submissions.
	hotShare   = 0.80
	freshShare = 0.15
	// paperCapacityMBps is the paper's link capacity (Section 6.1).
	paperCapacityMBps = 500
)

// workload is one benchmark workload: a seeded stream of ops, op i a
// pure function of (seed, i). Negative indices are warm-up inputs that
// never appear in the timed stream.
type workload struct {
	name string
	// cycle is the fixed input cycle: ops 0..cycle-1 always run, and the
	// quality metrics and results digest fold exactly these.
	cycle int
	// round is the length of the op pattern: a timed loop stops only
	// after a whole number of rounds, so ops of different weight keep
	// their shares.
	round int
	// warmup is the (negative) index of the set-up's warm-up op.
	warmup int
	// probeOps are the ops the traced run decomposes into layer calls.
	probeOps int
	// input describes op i's generated input, for the inputs digest.
	input func(i int) any
	// app is op i's application and capacity its link capacity (0 for
	// none), for the checks that recompute loads.
	app      func(i int) sunmap.AppSpec
	capacity float64
	// do runs op i directly on a session and returns its reports.
	do func(ctx context.Context, s *sunmap.Session, i int) ([]sunmap.Report, error)
	// probe describes op i to the layer probe.
	probe func(i int) probeSpec
	// served marks the workload driven over HTTP.
	served bool
}

// window is how many consecutive ops one single-client throughput
// window spans: a round, or eight ops when every op is alike.
func (w *workload) window() int {
	if w.round > 1 {
		return w.round
	}
	return 8
}

// done reports whether a loop that has taken n ops may stop once its
// time is up: the fixed cycle has run and the ops make whole rounds.
func (w *workload) done(n int) bool { return n >= w.cycle && n%w.round == 0 }

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-flow", "corpus-scale", "search-fault", "served-mix"}

// newWorkload builds the named workload's input stream for seed.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "paper-flow":
		return paperFlow(seed), nil
	case "corpus-scale":
		return corpusScale(seed, sz), nil
	case "search-fault":
		return searchFault(seed, sz), nil
	case "served-mix":
		return servedMix(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paperFlow: escalated selection with synthesis on the four paper apps,
// every flow scaled by its own seeded factor, then Generate of the
// winner.
func paperFlow(seed int64) *workload {
	app := func(i int) sunmap.AppSpec {
		n := len(paperRound)
		name := paperRound[(i%n+n)%n]
		a, err := scaledPaperApp(name, streamSeed(seed, "paper", i), true)
		if err != nil {
			panic(err) // the built-in names are fixed above
		}
		// A unique label keeps each op's synthesized topology names
		// (registered process-wide) from replacing another op's.
		a.Label = fmt.Sprintf("%s-%d", name, i)
		return a
	}
	mapSpec := sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: paperCapacityMBps}
	sel := func(i int) sunmap.SelectRequest {
		return sunmap.SelectRequest{App: app(i), Mapping: mapSpec, Escalate: true, Synth: &sunmap.SynthSpec{}}
	}
	return &workload{
		name:     "paper-flow",
		cycle:    2 * len(paperRound),
		round:    len(paperRound),
		warmup:   -1,
		probeOps: len(paperApps),
		input:    func(i int) any { return sel(i) },
		app:      app,
		capacity: paperCapacityMBps,
		do: func(ctx context.Context, s *sunmap.Session, i int) ([]sunmap.Report, error) {
			req := sel(i)
			rep := s.Do(ctx, sunmap.Request{Op: sunmap.OpSelect, Select: &req})
			if err := rep.Err(); err != nil {
				return []sunmap.Report{rep}, err
			}
			gm := mapSpec
			gm.Routing = rep.Select.RoutingUsed
			gen := s.Do(ctx, sunmap.Request{Op: sunmap.OpGenerate, Generate: &sunmap.GenerateRequest{
				App: req.App, Topology: rep.Select.Topology, Mapping: gm,
			}})
			return []sunmap.Report{rep, gen}, gen.Err()
		},
		probe: func(i int) probeSpec {
			return probeSpec{
				app: app(i), capacity: paperCapacityMBps, escalate: true, synth: true,
				search: probeSearch{budget: 2000, restarts: 2, seed: int64(i)},
				faultK: 1, faultElements: "links", simRates: []float64{0.05},
			}
		},
	}
}

// corpusScale: generated apps of growing size, one per size per round,
// selected under MP with no capacity limit, escalation or synthesis.
func corpusScale(seed int64, sz sizes) *workload {
	n := len(sz.corpus)
	app := func(i int) sunmap.AppSpec {
		cores := sz.corpus[(i%n+n)%n]
		return genApp(streamSeed(seed, "corpus", i), cores, fmt.Sprintf("corpus%d-%d", cores, i))
	}
	sel := func(i int) sunmap.SelectRequest {
		return sunmap.SelectRequest{App: app(i), Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay"}}
	}
	return &workload{
		name:     "corpus-scale",
		cycle:    n,
		round:    n,
		warmup:   -n + 1, // the middle size
		probeOps: n,
		input:    func(i int) any { return sel(i) },
		app:      app,
		do: func(ctx context.Context, s *sunmap.Session, i int) ([]sunmap.Report, error) {
			req := sel(i)
			rep := s.Do(ctx, sunmap.Request{Op: sunmap.OpSelect, Select: &req})
			return []sunmap.Report{rep}, rep.Err()
		},
		probe: func(i int) probeSpec {
			return probeSpec{
				app:    app(i),
				search: probeSearch{budget: 2000, restarts: 2, seed: int64(i)},
				faultK: 1, faultElements: "links", simRates: []float64{0.05},
			}
		},
	}
}

// searchFault: annealing search with a k=1 link-fault axis, a k=2 sweep
// of links and switches under SM on the winner, and a trace-driven
// simulation of the winner.
func searchFault(seed int64, sz sizes) *workload {
	app := func(i int) sunmap.AppSpec {
		return genApp(streamSeed(seed, "search", i), sz.searchCores, fmt.Sprintf("search-%d", i))
	}
	srch := func(i int) sunmap.SearchRequest {
		return sunmap.SearchRequest{
			App: app(i),
			Search: sunmap.SearchOptions{
				Budget: sz.searchBudget, Restarts: 4, Seed: streamSeed(seed, "search-seed", i) & 0xffffff,
			},
			Fault: &sunmap.FaultSpec{K: 1, Elements: "links"},
		}
	}
	return &workload{
		name:     "search-fault",
		cycle:    4,
		round:    1,
		warmup:   -1,
		probeOps: 2,
		input:    func(i int) any { return srch(i) },
		app:      app,
		do: func(ctx context.Context, s *sunmap.Session, i int) ([]sunmap.Report, error) {
			req := srch(i)
			rep := s.Do(ctx, sunmap.Request{Op: sunmap.OpSearch, Search: &req})
			if err := rep.Err(); err != nil {
				return []sunmap.Report{rep}, err
			}
			winner := rep.Search.Topology
			fs := s.Do(ctx, sunmap.Request{Op: sunmap.OpFaultSweep, FaultSweep: &sunmap.FaultSweepRequest{
				App: req.App, Topology: winner, Mapping: sunmap.MapSpec{Routing: "SM"},
				Fault: sunmap.FaultSpec{K: 2, Elements: "both"},
			}})
			if err := fs.Err(); err != nil {
				return []sunmap.Report{rep, fs}, err
			}
			sm := s.Do(ctx, sunmap.Request{Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{
				Topology: winner, Pattern: "trace", App: &req.App, Rates: sz.simRates, Seed: int64(i),
			}})
			return []sunmap.Report{rep, fs, sm}, sm.Err()
		},
		probe: func(i int) probeSpec {
			req := srch(i)
			return probeSpec{
				app: req.App, searchOnly: true,
				search: probeSearch{budget: req.Search.Budget, restarts: req.Search.Restarts, seed: req.Search.Seed, faultK: 1},
				faultK: 2, faultElements: "both",
				simRates: sz.simRates,
			}
		},
	}
}

// mixKind is the kind of one served-mix op.
type mixKind int

const (
	mixHot   mixKind = iota // select of a hot design point: a cache hit
	mixFresh                // select of a fresh design point: a miss
	mixJob                  // search job submission, polled to its result
)

// servedMix: HTTP selects from a hot set, fresh selects and search jobs.
type servedMixStream struct {
	seed int64
	sz   sizes
}

// kind draws op i's kind and, for a hot op, which hot point.
func (m servedMixStream) kind(i int) (mixKind, int) {
	rng := rand.New(rand.NewSource(streamSeed(m.seed, "mix", i)))
	u := rng.Float64()
	switch {
	case u < hotShare:
		return mixHot, rng.Intn(hotPoints)
	case u < hotShare+freshShare:
		return mixFresh, 0
	}
	return mixJob, 0
}

func (m servedMixStream) hotApp(k int) sunmap.AppSpec {
	return genApp(streamSeed(m.seed, "hot", k), m.sz.mixCores, fmt.Sprintf("hot-%d", k))
}

func selectReq(app sunmap.AppSpec) sunmap.Request {
	return sunmap.Request{Op: sunmap.OpSelect, Select: &sunmap.SelectRequest{
		App: app, Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay"},
	}}
}

// request is op i's request. Negative i are the hot-set fills.
func (m servedMixStream) request(i int) sunmap.Request {
	if i < 0 {
		return selectReq(m.hotApp(-i - 1))
	}
	switch kind, k := m.kind(i); kind {
	case mixHot:
		return selectReq(m.hotApp(k))
	case mixFresh:
		return selectReq(genApp(streamSeed(m.seed, "fresh", i), m.sz.mixCores, fmt.Sprintf("fresh-%d", i)))
	}
	app := genApp(streamSeed(m.seed, "job", i), m.sz.mixCores, fmt.Sprintf("job-%d", i))
	return sunmap.Request{Op: sunmap.OpSearch, Search: &sunmap.SearchRequest{
		App: app, Search: sunmap.SearchOptions{Budget: m.sz.jobBudget, Restarts: 2, Seed: int64(i)},
	}}
}

func servedMix(seed int64, sz sizes) *workload {
	m := servedMixStream{seed: seed, sz: sz}
	return &workload{
		name:     "served-mix",
		cycle:    16,
		round:    1,
		probeOps: 2,
		served:   true,
		input:    func(i int) any { return m.request(i) },
		app: func(i int) sunmap.AppSpec {
			req := m.request(i)
			if req.Select != nil {
				return req.Select.App
			}
			return req.Search.App
		},
		do: func(ctx context.Context, s *sunmap.Session, i int) ([]sunmap.Report, error) {
			rep := s.Do(ctx, m.request(i))
			return []sunmap.Report{rep}, rep.Err()
		},
		probe: func(i int) probeSpec {
			return probeSpec{
				app:    m.hotApp(i),
				search: probeSearch{budget: sz.jobBudget, restarts: 2, seed: int64(i)},
				faultK: 1, faultElements: "links", simRates: []float64{0.05},
			}
		},
	}
}

// primary is the report an op's quality is read from: the selection or
// the search.
func primary(reps []sunmap.Report) (cost float64, feasible bool, ok bool) {
	if len(reps) == 0 {
		return 0, false, false
	}
	switch r := reps[0]; {
	case r.Select != nil && r.Select.Best != nil:
		return r.Select.Best.Cost, r.Select.Best.Feasible, true
	case r.Search != nil && r.Search.Best != nil:
		return r.Search.Fitness, r.Search.Best.Feasible, true
	}
	return 0, false, false
}
