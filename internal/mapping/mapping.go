// Package mapping implements SUNMAP's core mapping algorithm (Fig. 5 of
// the paper): a greedy initial placement, per-commodity routing in
// decreasing bandwidth order on quadrant graphs, cost evaluation under the
// chosen design objective with area/power estimates in the loop, and a
// pairwise-swap improvement phase. The mapping problem is intractable
// ([19]), so this is the paper's heuristic, generalized over every
// topology in the library.
package mapping

import (
	"context"
	"fmt"
	"math"

	"sunmap/internal/area"
	"sunmap/internal/floorplan"
	"sunmap/internal/graph"
	"sunmap/internal/power"
	"sunmap/internal/route"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
)

// Objective selects the design objective driving the cost function
// (Section 4.1: "minimizing communication delay, area or power").
type Objective int

const (
	// MinDelay minimizes the bandwidth-weighted average hop count.
	MinDelay Objective = iota
	// MinArea minimizes estimated design area.
	MinArea
	// MinPower minimizes estimated network power.
	MinPower
	// Weighted combines normalized delay, area and power with the
	// Options.Weights coefficients (used by the Pareto explorer).
	Weighted
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinDelay:
		return "min-delay"
	case MinArea:
		return "min-area"
	case MinPower:
		return "min-power"
	case Weighted:
		return "weighted"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Weights are the coefficients of the Weighted objective; metrics are
// normalized by the initial mapping's values before combination.
type Weights struct {
	Delay, Area, Power float64
}

// Options configures Map.
type Options struct {
	// Routing is the routing function (Fig. 5 shows MinPath; DO/SM/SA
	// variants are "similarly extended", Section 4).
	Routing route.Function
	// Objective selects the cost function; Weights applies when
	// Objective == Weighted.
	Objective Objective
	Weights   Weights
	// CapacityMBps is the uniform link capacity; <= 0 relaxes the
	// bandwidth constraint (Section 6.2 does this for the NetProc study).
	CapacityMBps float64
	// MaxAreaMM2 bounds the floorplanned chip area; <= 0 disables.
	MaxAreaMM2 float64
	// MaxChipAspect bounds the chip aspect ratio; <= 0 disables.
	MaxChipAspect float64
	// Tech is the technology point (zero value -> Tech100nm).
	Tech tech.Tech
	// SwapPasses caps improvement passes. 0 means iterate to convergence
	// (capped internally); 1 reproduces the paper's single sweep.
	SwapPasses int
	// ExactFloorplanInLoop runs the LP floorplanner inside every swap
	// evaluation (the paper's step 7). Off by default: the fast length
	// estimator is used in-loop and the LP runs once on the final
	// mapping, which changes results negligibly and is ~100x faster.
	ExactFloorplanInLoop bool
	// Floorplan tunes the floorplanner.
	Floorplan floorplan.Options
	// Chunks is the traffic-splitting granularity for SM/SA.
	Chunks int
}

// RouteOptions lowers the mapping options onto the routing layer: the
// exact routing configuration every candidate evaluation of a Map call
// runs under. The fault subsystem starts from it (see fault.Degraded) so
// survivability sweeps reroute with the discipline the design was
// actually optimized for.
func (o Options) RouteOptions() route.Options {
	return route.Options{
		Function:     o.Routing,
		CapacityMBps: o.CapacityMBps,
		Chunks:       o.Chunks,
	}
}

func (o Options) withDefaults() Options {
	if o.Tech.FlitBits == 0 {
		o.Tech = tech.Tech100nm()
	}
	if o.SwapPasses <= 0 {
		o.SwapPasses = 16
	}
	return o
}

// Result is a mapped, evaluated design point.
type Result struct {
	// Topology is the network mapped onto.
	Topology topology.Topology
	// Assign maps core index -> terminal.
	Assign []int
	// Route holds link/router loads and flow paths.
	Route *route.Result
	// SwitchConfigs holds the per-router switch configurations.
	SwitchConfigs []area.SwitchConfig
	// Floorplan is the exact LP floorplan of the final mapping.
	Floorplan *floorplan.Result
	// DesignAreaMM2 is the packed design area: cores + switches + link
	// wiring (the quantity reported in the paper's comparison charts;
	// the slot-LP bounding box below additionally carries whitespace).
	DesignAreaMM2 float64
	// ChipAreaMM2 is the floorplan bounding-box area, used for the
	// MaxAreaMM2 and aspect constraints.
	ChipAreaMM2 float64
	// NetworkAreaMM2 is the switch + link wiring area alone.
	NetworkAreaMM2 float64
	// PowerMW is the network power (switches, links and NI hookups).
	PowerMW float64
	// PowerBreakdown splits switch vs link power.
	PowerBreakdown power.Breakdown
	// AvgHops is the bandwidth-weighted mean hop count.
	AvgHops float64
	// Cost is the objective value of the final mapping.
	Cost float64
	// Feasibility verdicts (Section 4.1: bandwidth and area constraints).
	BandwidthOK, AreaOK, AspectOK bool
	// SwapsApplied counts accepted improvement swaps.
	SwapsApplied int
}

// Feasible reports whether all constraints hold.
func (r *Result) Feasible() bool { return r.BandwidthOK && r.AreaOK && r.AspectOK }

// MapContext runs the Fig. 5 algorithm: greedy initial mapping, commodity
// routing in decreasing order, cost evaluation, pairwise-swap improvement,
// and a final exact floorplan + feasibility check. The swap-improvement search checks
// ctx between sweep rows and aborts with the context's error, so a long
// library sweep can be cut short by a deadline or a user interrupt.
func MapContext(ctx context.Context, g *graph.CoreGraph, topo topology.Topology, opts Options) (*Result, error) {
	return mapContext(ctx, g, topo, opts, nil, false)
}

// MapContextWith is MapContext with caller-owned scratch: the routing
// solver, candidate-load arrays and baseline-path buffers of the swap
// search come from sc and are reused by the next call, so a worker mapping
// many design points performs no steady-state allocations. A Scratch
// serves one call at a time; internal/engine keeps a free list with one
// per evaluation worker.
func MapContextWith(ctx context.Context, g *graph.CoreGraph, topo topology.Topology, opts Options, sc *Scratch) (*Result, error) {
	return mapContext(ctx, g, topo, opts, sc, false)
}

// mapContext is the shared implementation. When reference is set, the swap
// sweep evaluates every candidate with the retained naive evaluator
// (full re-route + full cost model per candidate) instead of the
// incremental one — the equivalence tests run both and assert identical
// results, which is the regression gate for the incremental path.
func mapContext(ctx context.Context, g *graph.CoreGraph, topo topology.Topology, opts Options, sc *Scratch, reference bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	if g.NumCores() > topo.NumTerminals() {
		return nil, fmt.Errorf("mapping: %d cores exceed %d terminals of %s",
			g.NumCores(), topo.NumTerminals(), topo.Name())
	}
	opts = opts.withDefaults()
	if err := opts.Tech.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	comms := g.Commodities()

	if sc == nil {
		sc = NewScratch()
	}
	ev := &evaluator{g: g, topo: topo, comms: comms, opts: opts, sc: sc}

	assign := greedyInitial(g, topo, sc)
	sc.occupant = resizeInts(sc.occupant, topo.NumTerminals())
	occupant := sc.occupant // terminal -> core or -1
	for t := range occupant {
		occupant[t] = -1
	}
	for c, t := range assign {
		occupant[t] = c
	}

	// Pairwise-swap improvement over all terminal pairs (occupied-occupied
	// and occupied-free), first-improvement sweeps: every swap that lowers
	// the cost is applied immediately, and sweeps repeat until one passes
	// with no improvement (or the pass cap is hit). This generalizes the
	// paper's "repeat steps 2 to 8 for each pair-wise swap of vertices".
	//
	// The incremental sweep re-routes only the commodities a swap can
	// affect and recomputes the cost model from maintained load arrays;
	// it produces bit-identical decisions to the reference sweep (see
	// incremental.go for why). The paper-faithful LP-in-the-loop mode
	// stays on the reference evaluator, which runs the floorplanner.
	var swaps int
	var err error
	if reference || opts.ExactFloorplanInLoop {
		swaps, err = sweepReference(ctx, ev, assign, occupant)
	} else {
		swaps, err = sweepIncremental(ctx, ev, assign, occupant, sc)
	}
	if err != nil {
		return nil, err
	}

	// Final exact evaluation with the LP floorplanner.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	final, err := ev.cost(assign, &exactMode{})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Topology:       topo,
		Assign:         append([]int(nil), assign...),
		Route:          final.route,
		SwitchConfigs:  final.cfgs,
		Floorplan:      final.fp,
		DesignAreaMM2:  final.designArea,
		ChipAreaMM2:    final.fp.ChipAreaMM2(),
		NetworkAreaMM2: final.networkArea,
		PowerMW:        final.powerMW,
		PowerBreakdown: final.powerBk,
		AvgHops:        final.route.AvgHops(),
		Cost:           ev.objective(final),
		BandwidthOK:    final.route.Feasible,
		AreaOK:         opts.MaxAreaMM2 <= 0 || final.fp.ChipAreaMM2() <= opts.MaxAreaMM2,
		AspectOK:       opts.MaxChipAspect <= 0 || final.fp.AspectRatio() <= opts.MaxChipAspect,
		SwapsApplied:   swaps,
	}
	return res, nil
}

// sweepReference is the retained naive swap search: every candidate is
// evaluated by re-routing all commodities from scratch and re-running the
// full cost model (ev.cost). It is the semantic definition the incremental
// sweep must reproduce exactly, the evaluator for the paper-faithful
// LP-in-the-loop mode, and the baseline side of the equivalence tests.
func sweepReference(ctx context.Context, ev *evaluator, assign, occupant []int) (int, error) {
	baseCost, err := ev.cost(assign, nil)
	if err != nil {
		return 0, err
	}
	ev.norm = baseCost.raw // normalize weighted objectives by the seed mapping
	curCost := ev.objective(baseCost)
	numT := ev.topo.NumTerminals()
	swaps := 0
	for pass := 0; pass < ev.opts.SwapPasses; pass++ {
		improved := false
		for a := 0; a < numT; a++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			for b := a + 1; b < numT; b++ {
				if occupant[a] == -1 && occupant[b] == -1 {
					continue
				}
				swapTerminals(assign, occupant, a, b)
				cand, err := ev.cost(assign, nil)
				if err != nil {
					return 0, err
				}
				if c := ev.objective(cand); c < curCost-1e-12 {
					curCost = c
					improved = true
					swaps++
				} else {
					swapTerminals(assign, occupant, a, b) // undo
				}
			}
		}
		if !improved {
			break
		}
	}
	return swaps, nil
}

func swapTerminals(assign, occupant []int, a, b int) {
	ca, cb := occupant[a], occupant[b]
	occupant[a], occupant[b] = cb, ca
	if ca != -1 {
		assign[ca] = b
	}
	if cb != -1 {
		assign[cb] = a
	}
}

// greedyInitial implements step 1 of Fig. 5: the core with maximum total
// communication goes to the terminal whose router has the most neighbours;
// then, repeatedly, the unplaced core communicating most with placed cores
// takes the free terminal minimizing bandwidth-weighted hop cost. The
// returned assignment lives in sc and is valid until the next Map call on
// the same Scratch (Result copies it before escaping).
func greedyInitial(g *graph.CoreGraph, topo topology.Topology, sc *Scratch) []int {
	n := g.NumCores()
	sc.assign = resizeInts(sc.assign, n)
	assign := sc.assign
	for i := range assign {
		assign[i] = -1
	}
	sc.greedyFree = resizeBools(sc.greedyFree, topo.NumTerminals())
	free := sc.greedyFree
	for t := range free {
		free[t] = true
	}
	between, volume := sc.fillComm(g)

	// Seed core: maximum communication volume.
	seed := 0
	for i := 1; i < n; i++ {
		if volume[i] > volume[seed] {
			seed = i
		}
	}
	// Seed terminal: router with maximum degree (most neighbours), lowest
	// terminal index on ties.
	bestT, bestDeg := 0, -1
	for t := 0; t < topo.NumTerminals(); t++ {
		in, out := topo.RouterDegree(topo.InjectRouter(t))
		if d := in + out; d > bestDeg {
			bestDeg = d
			bestT = t
		}
	}
	assign[seed] = bestT
	free[bestT] = false

	for placed := 1; placed < n; placed++ {
		// Most-communicating unplaced core relative to placed ones.
		next, nextComm := -1, -1.0
		for i := 0; i < n; i++ {
			if assign[i] != -1 {
				continue
			}
			var c float64
			for j := 0; j < n; j++ {
				if assign[j] != -1 {
					c += between[i*n+j]
				}
			}
			// Ties (including zero communication) break toward the core
			// with the larger total volume, then the lower index.
			if c > nextComm || (c == nextComm && next != -1 && volume[i] > volume[next]) {
				next = i
				nextComm = c
			}
		}
		// Terminal minimizing weighted hop cost to placed communicators.
		bestT, bestCost := -1, math.Inf(1)
		for t := 0; t < topo.NumTerminals(); t++ {
			if !free[t] {
				continue
			}
			var cost float64
			for j := 0; j < n; j++ {
				if assign[j] == -1 {
					continue
				}
				bw := between[next*n+j]
				if bw == 0 {
					continue
				}
				cost += bw * float64(topo.MinHops(t, assign[j])+topo.MinHops(assign[j], t)) / 2
			}
			if cost < bestCost {
				bestCost = cost
				bestT = t
			}
		}
		assign[next] = bestT
		free[bestT] = false
	}
	return assign
}

// fillComm fills the Scratch's dense core-pair tables from g's edges:
// between[i*n+j] is CommBetween(i, j) and volume[i] is CommVolume(i).
// Edges are folded in edge order, exactly as those methods sum them, so
// every entry is bitwise equal to the method's result.
func (sc *Scratch) fillComm(g *graph.CoreGraph) (between, volume []float64) {
	n := g.NumCores()
	sc.commBetween = resizeFloats(sc.commBetween, n*n)
	sc.commVolume = resizeFloats(sc.commVolume, n)
	between, volume = sc.commBetween, sc.commVolume
	clear(between)
	clear(volume)
	for k := 0; k < g.NumEdges(); k++ {
		e := g.Edge(k)
		between[e.From*n+e.To] += e.BandwidthMBps
		volume[e.From] += e.BandwidthMBps
		if e.To != e.From {
			between[e.To*n+e.From] += e.BandwidthMBps
			volume[e.To] += e.BandwidthMBps
		}
	}
	return between, volume
}

// evalResult carries the metrics of one candidate mapping.
type evalResult struct {
	route       *route.Result
	cfgs        []area.SwitchConfig
	fp          *floorplan.Result
	designArea  float64
	networkArea float64
	powerMW     float64
	powerBk     power.Breakdown
	raw         rawMetrics
}

type rawMetrics struct {
	hops, areaMM2, powerMW float64
}

type exactMode struct{}

// evaluator caches the per-topology state shared by all candidate
// evaluations of one Map call.
type evaluator struct {
	g     *graph.CoreGraph
	topo  topology.Topology
	comms []graph.Commodity
	opts  Options
	norm  rawMetrics // normalization baseline for the weighted objective
	sc    *Scratch   // full-evaluation workspace (router, floorplanner)
	cores []graph.Core
}

// coreList returns the core list, copied out of the graph once per Map
// call.
func (ev *evaluator) coreList() []graph.Core {
	if ev.cores == nil {
		ev.cores = ev.g.Cores()
	}
	return ev.cores
}

// cost evaluates a mapping: route, size switches, estimate (or exactly
// compute, when exact != nil) floorplan lengths, and derive area/power.
// With a Scratch attached, routing and the LP floorplanner run in reused
// workspace and only the escaping result structures are allocated.
func (ev *evaluator) cost(assign []int, exact *exactMode) (*evalResult, error) {
	var res *route.Result
	if sc := ev.sc; sc != nil {
		if err := sc.rt.RouteInto(&sc.evalRes, ev.topo, assign, ev.comms, ev.opts.RouteOptions()); err != nil {
			return nil, err
		}
		res = sc.evalRes.Clone()
	} else {
		var err error
		res, err = route.Route(ev.topo, assign, ev.comms, ev.opts.RouteOptions())
		if err != nil {
			return nil, err
		}
	}
	t := ev.opts.Tech
	cfgs := area.SwitchConfigs(ev.topo, assign, t)
	var swArea float64
	for _, c := range cfgs {
		swArea += area.SwitchAreaMM2(c, t)
	}
	cores := ev.coreList()

	var err error
	var linkLens []float64
	var fp *floorplan.Result
	useExact := exact != nil || ev.opts.ExactFloorplanInLoop
	if useExact {
		var swAreas []float64
		if ev.sc != nil {
			ev.sc.swAreas = resizeFloats(ev.sc.swAreas, len(cfgs))
			swAreas = ev.sc.swAreas
		} else {
			swAreas = make([]float64, len(cfgs))
		}
		for i, c := range cfgs {
			swAreas[i] = area.SwitchAreaMM2(c, t)
		}
		if ev.sc != nil {
			fp, err = ev.sc.fp.Floorplan(ev.topo, assign, cores, swAreas, ev.opts.Floorplan)
		} else {
			fp, err = floorplan.Floorplan(ev.topo, assign, cores, swAreas, ev.opts.Floorplan)
		}
		if err != nil {
			return nil, err
		}
		linkLens = fp.LinkLengthsMM
	} else {
		linkLens, _ = floorplan.EstimateLinkLengthsMM(ev.topo, assign, cores, ev.opts.Floorplan)
	}

	// Design area as reported in the paper's charts: packed blocks plus
	// link wiring. (The slot-LP bounding box additionally charges
	// whitespace that a production floorplanner would recover; it is used
	// only for the chip-level area/aspect constraints.)
	linkArea := area.LinkAreaMM2(linkLens, t)
	networkArea := swArea + linkArea
	designArea := ev.g.TotalCoreAreaMM2() + networkArea

	bk, err := power.NetworkPowerBreakdown(cfgs, res.RouterLoads, res.LinkLoads, linkLens, t)
	if err != nil {
		return nil, err
	}
	bk.LinkMW += ev.niHookupMW(cores)

	return &evalResult{
		route:       res,
		cfgs:        cfgs,
		fp:          fp,
		designArea:  designArea,
		networkArea: networkArea,
		powerMW:     bk.TotalMW(),
		powerBk:     bk,
		raw: rawMetrics{
			hops:    res.AvgHops(),
			areaMM2: designArea,
			powerMW: bk.TotalMW(),
		},
	}, nil
}

// niHookupMW returns the network-interface hookup power: the NI sits
// against its core, so the hookup is a local wire of about half a
// placement pitch; the long global wires are the inter-switch links the
// breakdown already charges. The value depends only on the application and
// tech point — never on the assignment — so the incremental evaluator
// computes it once per Map call.
func (ev *evaluator) niHookupMW(cores []graph.Core) float64 {
	t := ev.opts.Tech
	hookupMM := 0.5 * floorplan.EstimatePitchMM(cores, ev.opts.Floorplan)
	edges := ev.g.Edges()
	var niMW float64
	for i := range cores {
		io := 0.0
		for _, e := range edges {
			if e.From == i || e.To == i {
				io += e.BandwidthMBps
			}
		}
		niMW += io * power.LinkBitEnergyPJ(hookupMM, t) * power.MWPerMBpsPJ
	}
	return niMW
}

// objective folds an evaluation into a scalar cost, adding a proportional
// penalty when the bandwidth constraint is violated so the swap search is
// pulled toward feasibility.
func (ev *evaluator) objective(e *evalResult) float64 {
	var base float64
	switch ev.opts.Objective {
	case MinDelay:
		base = e.raw.hops
	case MinArea:
		base = e.raw.areaMM2
	case MinPower:
		base = e.raw.powerMW
	case Weighted:
		w := ev.opts.Weights
		n := ev.norm
		if n.hops <= 0 {
			n.hops = 1
		}
		if n.areaMM2 <= 0 {
			n.areaMM2 = 1
		}
		if n.powerMW <= 0 {
			n.powerMW = 1
		}
		base = w.Delay*e.raw.hops/n.hops + w.Area*e.raw.areaMM2/n.areaMM2 + w.Power*e.raw.powerMW/n.powerMW
	default:
		base = e.raw.hops
	}
	// Load-balance tie-break: a term far below any real metric difference
	// that steers the search toward spreading traffic when the primary
	// objective is flat (butterflies and Clos networks have constant hop
	// counts, so min-delay alone cannot distinguish their mappings).
	if e.route.TotalMBps > 0 {
		base += 1e-3 * e.route.MaxLinkLoad / e.route.TotalMBps
	}
	// Bandwidth-violation penalty: proportional to the total overload
	// across all links (smoother than penalizing the max alone, so the
	// search can trade one overloaded link for a smaller one and still
	// see progress toward feasibility).
	if limit := ev.opts.CapacityMBps; limit > 0 {
		var overload float64
		for _, l := range e.route.LinkLoads {
			if l > limit {
				overload += (l - limit) / limit
			}
		}
		if overload > 0 {
			base *= 1 + 10*overload
		}
	}
	return base
}
