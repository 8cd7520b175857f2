// Incremental swap evaluation.
//
// The reference sweep evaluates a candidate swap by re-routing every
// commodity from scratch and re-running the whole area/power cost model.
// The incremental evaluator in this file produces *bit-identical* results
// while doing a small fraction of that work. Two facts make this possible:
//
//  1. Routing is a deterministic function of its visible inputs. A
//     commodity's path depends only on its terminal pair and — for the
//     congestion-aware MinPath function — on the link loads inside its
//     quadrant at its position in the fixed decreasing-bandwidth order.
//     When a candidate evaluation replays commodities in that order, any
//     commodity whose endpoints did not move and whose quadrant contains
//     no link where the candidate's load history diverged from the
//     baseline's would run Dijkstra over identical weights and produce the
//     identical path, so its cached baseline path is spliced in instead.
//     Divergence ("dirty" links) only arises from commodities that were
//     actually re-routed onto a different path, which a swap keeps local.
//     Dimension-ordered paths read no loads at all, so only the moved
//     commodities ever re-route. The splitting functions splice at the
//     whole-commodity granularity: a commodity's chunk decomposition is a
//     deterministic function of the loads it can read (the minimum-hop
//     DAG's arcs for SM, everything for SA), so when none of those
//     diverged, the recorded merged-path/chunk structure is replayed with
//     the identical add/undo/commit arithmetic.
//
//  2. The scalar cost folds are replayed, not patched. Candidate link and
//     router loads are rebuilt in commodity order into reusable arrays
//     (bitwise equal to a from-scratch route because each element sees the
//     same additions in the same order), and the area/power aggregation
//     then runs the very same loops over them — same functions, same
//     iteration order, so the floats match to the last ulp and every swap
//     accept/reject decision lands exactly as the reference's would.
//     Assignment-independent terms (estimated link lengths and their
//     wiring area, total core area, NI hookup power) are computed once per
//     Map call; they are constants of the replayed expressions, not
//     approximations, so no drift can accumulate and no periodic full
//     re-evaluation is needed.
//
// Everything the evaluator touches lives in a Scratch so steady-state
// candidate evaluation allocates nothing (BenchmarkMap/swap-eval asserts
// 0 allocs/op).
package mapping

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"sunmap/internal/area"
	"sunmap/internal/floorplan"
	"sunmap/internal/graph"
	"sunmap/internal/power"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// Scratch holds the reusable state of one mapping worker: the routing
// solver, the incremental evaluator's load arrays, path buffers and
// switch-config scratch, the greedy-placement and occupancy buffers, and
// the full-evaluation workspace (a routing Result plus the floorplanner's
// LP workspace) used by every non-incremental cost evaluation — the final
// exact evaluation of each Map call, the reference sweep, and the
// LP-in-the-loop mode. Buffers are bound to a topology per Map call and
// regrown as needed, so one Scratch serves an entire library sweep. It is
// single-goroutine state: give each worker its own (internal/engine pools
// them via internal/pool.Free).
type Scratch struct {
	rt  *route.Router
	inc incState
	fp  *floorplan.Planner

	// Greedy placement / sweep occupancy buffers, and the dense core-pair
	// bandwidth tables greedy placement reads (see fillComm).
	assign, occupant []int
	greedyFree       []bool
	commBetween      []float64
	commVolume       []float64

	// Full-evaluation scratch: the routing result every ev.cost call
	// accumulates into (cloned before escaping) and the switch-area list
	// fed to the floorplanner.
	evalRes route.Result
	swAreas []float64
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch {
	return &Scratch{rt: route.NewRouter(), fp: floorplan.NewPlanner()}
}

// incState is the incremental candidate evaluator.
type incState struct {
	ev    *evaluator
	rt    *route.Router
	topo  topology.Topology
	comms []graph.Commodity
	links []topology.Link

	oblivious     bool // DO: paths are load-independent
	loadSensitive bool // MP: paths read link loads inside the quadrant
	splitMin      bool // SM: chunk paths read loads on the min-hop DAG
	splitAll      bool // SA: chunk paths read loads anywhere
	effChunks     int  // splitting granularity after defaulting

	// Assignment-independent constants of the cost model.
	cores     []graph.Core
	linkLens  []float64
	linkArea  float64
	coreArea  float64
	niMW      float64
	totalMBps float64

	// Hop-lower-bound pruning scratch: hopSuffix[k] is the
	// bandwidth-weighted minimum-hop sum of commodities k.. under the
	// candidate assignment.
	hopSuffix []float64
	// overloaded is sticky per eval: set once any link load has exceeded
	// the capacity. While it is false every load is within capacity, so
	// hopBound's overload term is exactly 0 and its link walk is skipped.
	// over holds every link seen above capacity at a commodity boundary,
	// a superset of the links overloaded now, which hopBound walks in
	// place of scanning every link.
	overloaded bool
	over       graph.Bits

	// Baseline: the routed structure of every commodity under the
	// currently accepted assignment.
	base []flowRec

	// Candidate scratch, rebuilt by every eval call.
	res             route.Result // loads + hop/total aggregates
	cand            []flowRec
	reroutedIDs     []int
	dirty           graph.Bits // links where the candidate's load history diverged
	anyDirty        bool
	coreIn, coreOut []int
	cfgs            []area.SwitchConfig
	scratchEval     evalResult
}

// sweepIncremental runs the pairwise-swap improvement with the incremental
// evaluator. It mirrors sweepReference move for move; only the candidate
// evaluation mechanism differs.
func sweepIncremental(ctx context.Context, ev *evaluator, assign, occupant []int, sc *Scratch) (int, error) {
	st := &sc.inc
	st.bind(ev, sc.rt)
	baseCost, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
	if err != nil {
		return 0, err
	}
	st.promote()
	ev.norm = baseCost.raw // normalize weighted objectives by the seed mapping
	curCost := ev.objective(baseCost)
	// Hop-lower-bound pruning applies only under the pure MinDelay
	// objective, where the bound argument (see eval) is certified; other
	// objectives evaluate every candidate, exactly like the reference.
	usePrune := ev.opts.Objective == MinDelay && st.totalMBps > 0
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
				bound := math.Inf(1)
				if usePrune {
					bound = curCost
				}
				ca, cb := occupant[a], occupant[b] // the cores about to move
				swapTerminals(assign, occupant, a, b)
				cand, pruned, err := st.eval(assign, ca, cb, false, bound)
				if err != nil {
					return 0, err
				}
				if pruned {
					swapTerminals(assign, occupant, a, b) // undo
					continue
				}
				if c := ev.objective(cand); c < curCost-1e-12 {
					curCost = c
					improved = true
					swaps++
					st.promote()
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

// bind attaches the evaluator state to one Map call, resizing buffers and
// precomputing the assignment-independent cost-model terms.
func (st *incState) bind(ev *evaluator, rt *route.Router) {
	st.ev = ev
	st.rt = rt
	st.topo = ev.topo
	st.comms = ev.comms
	st.links = ev.topo.Links()
	rt.Bind(ev.topo)

	fn := ev.opts.Routing
	st.oblivious = fn == route.DimensionOrdered
	st.loadSensitive = fn == route.MinPath
	st.splitMin = fn == route.SplitMin
	st.splitAll = fn == route.SplitAll
	st.effChunks = ev.opts.Chunks
	if st.effChunks <= 0 {
		st.effChunks = route.DefaultChunks
	}

	st.cores = ev.coreList()
	// Estimated link lengths depend only on the topology template and the
	// application's average core pitch — not on the assignment — so the
	// in-loop wiring-area term is a per-Map constant.
	st.linkLens, _ = floorplan.EstimateLinkLengthsMM(st.topo, nil, st.cores, ev.opts.Floorplan)
	st.linkArea = area.LinkAreaMM2(st.linkLens, ev.opts.Tech)
	st.coreArea = ev.g.TotalCoreAreaMM2()
	st.niMW = ev.niHookupMW(st.cores)
	st.totalMBps = 0
	for _, c := range st.comms {
		st.totalMBps += c.ValueMBps
	}

	m := len(st.comms)
	st.base = resizeRecs(st.base, m)
	st.cand = resizeRecs(st.cand, m)
	st.reroutedIDs = st.reroutedIDs[:0]

	l, r := len(st.links), st.topo.NumRouters()
	st.dirty = resizeBits(st.dirty, l)
	st.over = resizeBits(st.over, l)
	st.coreIn = resizeInts(st.coreIn, r)
	st.coreOut = resizeInts(st.coreOut, r)
	if cap(st.cfgs) < r {
		st.cfgs = make([]area.SwitchConfig, r)
	}
	st.cfgs = st.cfgs[:r]
}

// pruneSlack is the relative safety margin of the hop-lower-bound prune:
// a candidate is rejected without (full) evaluation only when its
// certified lower bound clears the current cost by this margin, which
// exceeds any float divergence between the bound's arithmetic and the
// evaluated objective's by several orders of magnitude. The equivalence
// suite (incremental vs reference, which never prunes) is the regression
// gate on this reasoning.
const pruneSlack = 1e-10

// hopBound returns a certified lower bound on the MinDelay objective of
// the assignment after commodity k-1, given the hop aggregate routed so
// far: every remaining commodity must visit at least its terminal pair's
// MinHops routers, the load tie-break only adds a non-negative term, and
// the overload penalty multiplies by a factor that is monotone in the
// link loads — which at commodity boundaries only ever grow toward the
// final loads. So no completion of this partial evaluation can score
// below the returned value. rec is commodity k-1's just-applied record:
// the only links whose loads changed since the previous call. Its links
// above capacity join st.over, so st.over covers every overloaded link
// and walking it in ascending ID order adds the same terms in the same
// order as a scan of every link; while no link has overloaded the walk is
// skipped.
func (st *incState) hopBound(res *route.Result, k int, rec *flowRec) float64 {
	lb := (res.HopSumMBps + st.hopSuffix[k]) / st.totalMBps
	limit := st.ev.opts.CapacityMBps
	if limit <= 0 {
		return lb
	}
	for i := 0; i < rec.n; i++ {
		for _, id := range rec.arcs[i] {
			if res.LinkLoads[id] > limit {
				st.over.Set(id)
				st.overloaded = true
			}
		}
	}
	if !st.overloaded {
		return lb
	}
	var overload float64
	for w, word := range st.over {
		for ; word != 0; word &= word - 1 {
			if l := res.LinkLoads[w*64+bits.TrailingZeros64(word)]; l > limit {
				overload += (l - limit) / limit
			}
		}
	}
	if overload > 0 {
		lb *= 1 + 10*overload
	}
	return lb
}

// eval evaluates the current assignment. ca and cb are the cores the
// preceding swap moved (-1 when a terminal was free); all forces a full
// re-route of every commodity. The returned evalResult is scratch, valid
// until the next eval call.
//
// bound enables hop-lower-bound pruning: when finite (MinDelay sweeps
// pass the current best cost), the evaluation is abandoned — pruned=true,
// nil result — as soon as the certified lower bound shows the candidate
// cannot beat bound. A pruned candidate is exactly one the reference
// sweep would have evaluated and rejected.
//
//sunmap:hotpath
func (st *incState) eval(assign []int, ca, cb int, all bool, bound float64) (e *evalResult, pruned bool, err error) {
	opts := st.ev.opts
	prune := !math.IsInf(bound, 1)
	if prune {
		// Fill the minimum-hop suffix sums for this assignment; the k=0
		// entry is the whole-candidate lower bound, checked before any
		// routing work.
		m := len(st.comms)
		st.hopSuffix = resizeFloats(st.hopSuffix, m+1)
		st.hopSuffix[m] = 0
		for k := m - 1; k >= 0; k-- {
			c := st.comms[k]
			st.hopSuffix[k] = st.hopSuffix[k+1] +
				c.ValueMBps*float64(st.topo.MinHops(assign[c.Src], assign[c.Dst]))
		}
		if st.hopSuffix[0]/st.totalMBps*(1-pruneSlack) >= bound {
			return nil, true, nil
		}
	}
	res := &st.res
	res.Reset(len(st.links), st.topo.NumRouters())
	st.overloaded = false
	st.over.Clear()
	st.dirty.Clear()
	st.anyDirty = false
	st.reroutedIDs = st.reroutedIDs[:0]

	for k := range st.comms {
		c := st.comms[k]
		reroute := all || c.Src == ca || c.Dst == ca || c.Src == cb || c.Dst == cb
		if !reroute && st.anyDirty {
			// Re-route when a diverged link is one this commodity's
			// search could read a weight from: a link with both ends in
			// its quadrant (MP) or on its min-hop DAG (SM), both bitsets
			// of the topology's pair table. Links outside that region
			// cannot influence the (deterministic) search, so the cached
			// record is provably what a fresh run would produce.
			switch {
			case st.oblivious:
				// DO paths read no loads at all.
			case st.loadSensitive:
				p := st.rt.Pair(assign[c.Src], assign[c.Dst])
				reroute = p == nil || st.dirty.Intersects(p.QuadLinks)
			case st.splitMin:
				p := st.rt.Pair(assign[c.Src], assign[c.Dst])
				reroute = p == nil || st.dirty.Intersects(p.DAG)
			case st.splitAll:
				reroute = true
			}
		}
		if !reroute {
			st.applyRec(res, c, &st.base[k])
			if prune && st.hopBound(res, k+1, &st.base[k])*(1-pruneSlack) >= bound {
				return nil, true, nil
			}
			continue
		}
		srcT, dstT := assign[c.Src], assign[c.Dst]
		rec := &st.cand[k]
		var err error
		switch {
		case st.splitMin || st.splitAll:
			err = st.rerouteSplit(res, srcT, dstT, c, rec)
		case st.oblivious:
			var verts, arcs []int
			verts, arcs, err = st.rt.PathDO(srcT, dstT, c)
			if err == nil {
				rec.setSingle(verts, arcs)
				st.applySingle(res, c, verts, arcs)
			}
		default:
			var verts, arcs []int
			verts, arcs, err = st.rt.PathMP(srcT, dstT, c, res.LinkLoads, true)
			if err == nil {
				rec.setSingle(verts, arcs)
				st.applySingle(res, c, verts, arcs)
			}
		}
		if err != nil {
			return nil, false, err
		}
		st.reroutedIDs = append(st.reroutedIDs, k) //sunmap:alloc amortized rerouted-ID scratch growth, reset per eval
		if !all && !st.oblivious && !recEqual(rec, &st.base[k]) {
			// The candidate's load history now differs from the
			// baseline's on the symmetric difference of the two records'
			// arcs; marking the union is a conservative superset.
			st.markRecDirty(&st.base[k])
			st.markRecDirty(rec)
		}
		if prune && st.hopBound(res, k+1, rec)*(1-pruneSlack) >= bound {
			return nil, true, nil
		}
	}
	route.FinalizeLoads(res, opts.CapacityMBps)
	e, err = st.buildEval(assign)
	return e, false, err
}

// rerouteSplit routes one split commodity through the scratch router
// (which applies every aggregate itself) and copies the merged structure
// into rec.
func (st *incState) rerouteSplit(res *route.Result, srcT, dstT int, c graph.Commodity, rec *flowRec) error {
	n, err := st.rt.RouteSplitOne(res, srcT, dstT, c, st.effChunks, st.splitMin)
	if err != nil {
		return err
	}
	rec.split = true
	rec.n = n
	rec.verts = resizePathBufs(rec.verts, n)
	rec.arcs = resizePathBufs(rec.arcs, n)
	if cap(rec.fracs) < n {
		rec.fracs = make([]float64, n) //sunmap:alloc first-use growth of split-fraction buffer, kept on the record for reuse
	}
	rec.fracs = rec.fracs[:n]
	for i := 0; i < n; i++ {
		v, a, f := st.rt.SplitPath(i)
		rec.verts[i] = append(rec.verts[i][:0], v...)
		rec.arcs[i] = append(rec.arcs[i][:0], a...)
		rec.fracs[i] = f
	}
	rec.chunkAcc = append(rec.chunkAcc[:0], st.rt.SplitChunkAcc()...)
	return nil
}

// promote adopts the records of the just-evaluated (accepted) candidate
// as the new baseline by swapping buffers — no copies.
func (st *incState) promote() {
	for _, k := range st.reroutedIDs {
		st.base[k], st.cand[k] = st.cand[k], st.base[k]
	}
}

// applyRec replays a commodity's recorded routing into the candidate
// aggregates.
func (st *incState) applyRec(res *route.Result, c graph.Commodity, rec *flowRec) {
	if !rec.split {
		st.applySingle(res, c, rec.verts[0], rec.arcs[0])
		return
	}
	// Replicate routeSplit's arithmetic: per-chunk load application (so
	// every += lands in the same order with the same operand), the
	// per-merged-path undo, then the commit fold.
	frac := 1.0 / float64(st.effChunks)
	for _, ai := range rec.chunkAcc {
		bw := c.ValueMBps * frac
		for _, id := range rec.arcs[ai] {
			res.LinkLoads[id] += bw
		}
	}
	for i := 0; i < rec.n; i++ {
		bw := c.ValueMBps * rec.fracs[i]
		for _, id := range rec.arcs[i] {
			res.LinkLoads[id] -= bw
		}
	}
	for i := 0; i < rec.n; i++ {
		bw := c.ValueMBps * rec.fracs[i]
		for _, id := range rec.arcs[i] {
			res.LinkLoads[id] += bw
		}
		for _, r := range rec.verts[i] {
			res.RouterLoads[r] += bw
		}
		res.HopSumMBps += bw * float64(len(rec.verts[i]))
		res.TotalMBps += bw
	}
}

// applySingle folds one whole-commodity path into the candidate
// aggregates with exactly the arithmetic (and order) of route's commit.
func (st *incState) applySingle(res *route.Result, c graph.Commodity, verts, arcs []int) {
	bw := c.ValueMBps * 1.0
	for _, id := range arcs {
		res.LinkLoads[id] += bw
	}
	for _, r := range verts {
		res.RouterLoads[r] += bw
	}
	res.HopSumMBps += bw * float64(len(verts))
	res.TotalMBps += bw
}

// markRecDirty records a routing record's links as diverged.
func (st *incState) markRecDirty(rec *flowRec) {
	for i := 0; i < rec.n; i++ {
		for _, id := range rec.arcs[i] {
			st.dirty.Set(id)
			st.anyDirty = true
		}
	}
}

// buildEval replays the in-loop cost model over the candidate loads: the
// same switch-config derivation, area fold and power fold as ev.cost runs,
// over the same element order, with the per-Map constants substituted for
// the assignment-independent terms. The result is bitwise equal to
// ev.cost(assign, nil)'s metrics.
func (st *incState) buildEval(assign []int) (*evalResult, error) {
	topo := st.topo
	t := st.ev.opts.Tech
	for r := range st.coreIn {
		st.coreIn[r] = 0
		st.coreOut[r] = 0
	}
	for _, term := range assign {
		st.coreIn[topo.InjectRouter(term)]++
		st.coreOut[topo.EjectRouter(term)]++
	}
	for r := range st.cfgs {
		in, out := topo.RouterDegree(r)
		st.cfgs[r] = area.SwitchConfig{
			In:            in + st.coreIn[r],
			Out:           out + st.coreOut[r],
			BufDepthFlits: t.BufDepthFlits,
			FlitBits:      t.FlitBits,
		}
	}
	var swArea float64
	for _, c := range st.cfgs {
		swArea += area.SwitchAreaMM2(c, t)
	}
	bk, err := power.NetworkPowerBreakdown(st.cfgs, st.res.RouterLoads, st.res.LinkLoads, st.linkLens, t)
	if err != nil {
		return nil, err
	}
	bk.LinkMW += st.niMW
	networkArea := swArea + st.linkArea
	designArea := st.coreArea + networkArea

	e := &st.scratchEval
	*e = evalResult{
		route:       &st.res,
		cfgs:        st.cfgs,
		designArea:  designArea,
		networkArea: networkArea,
		powerMW:     bk.TotalMW(),
		powerBk:     bk,
		raw: rawMetrics{
			hops:    st.res.AvgHops(),
			areaMM2: designArea,
			powerMW: bk.TotalMW(),
		},
	}
	return e, nil
}

// flowRec is one commodity's recorded routing under an assignment: a
// single path (split=false, one entry) or the merged-path structure of a
// split routing plus the chunk-to-path assignment needed to replay its
// exact load arithmetic. Buffers are reused across candidates.
type flowRec struct {
	split    bool
	n        int
	verts    [][]int
	arcs     [][]int
	fracs    []float64
	chunkAcc []int
}

// setSingle records a whole-commodity path (copying out of router
// scratch).
func (rec *flowRec) setSingle(verts, arcs []int) {
	rec.split = false
	rec.n = 1
	rec.verts = resizePathBufs(rec.verts, 1)
	rec.arcs = resizePathBufs(rec.arcs, 1)
	rec.verts[0] = append(rec.verts[0][:0], verts...)
	rec.arcs[0] = append(rec.arcs[0][:0], arcs...)
}

// recEqual reports whether two records describe the identical routing
// (same paths, same chunk folding) — in which case their load histories
// coincide and no dirty marking is needed.
func recEqual(a, b *flowRec) bool {
	if a.split != b.split || a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if !slices.Equal(a.arcs[i], b.arcs[i]) {
			return false
		}
	}
	if a.split && !slices.Equal(a.chunkAcc, b.chunkAcc) {
		return false
	}
	return true
}

// resizeRecs grows a flow-record table to n entries, keeping existing
// buffers for reuse.
func resizeRecs(recs []flowRec, n int) []flowRec {
	if cap(recs) < n {
		grown := make([]flowRec, n)
		copy(grown, recs)
		return grown
	}
	return recs[:n]
}

// resizePathBufs grows a per-commodity path-buffer table to n entries,
// keeping existing buffers for reuse.
func resizePathBufs(bufs [][]int, n int) [][]int {
	if cap(bufs) < n {
		grown := make([][]int, n) //sunmap:alloc first-use growth, existing buffers recycled
		copy(grown, bufs)
		return grown
	}
	return bufs[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resizeBits returns b resized to hold n IDs. Callers clear it before
// use.
func resizeBits(b graph.Bits, n int) graph.Bits {
	w := (n + 63) / 64
	if cap(b) < w {
		return graph.NewBits(n)
	}
	return b[:w]
}

// resizeFloats returns s resized to n without zeroing (callers overwrite
// every element).
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //sunmap:alloc first-use growth, recycled
	}
	return s[:n]
}

// resizeBools returns s resized to n without zeroing.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
