// Router: reusable scratch state for the routing hot path.
//
// The mapper's pairwise-swap improvement loop evaluates thousands of
// candidate mappings, each of which re-routes commodities. With the plain
// Route entry point every one of those evaluations allocates dist/prev
// arrays, a priority queue, path slices and a fresh quadrant mask per
// commodity. A Router owns all of that scratch — a graph.SPSolver, path
// buffers and the split-routing accumulator arena — so steady-state
// routing work allocates nothing.
//
// Ownership contract: a Router is single-goroutine state. The mapper owns
// one per Map call (or borrows one through mapping.Scratch), and
// internal/engine keeps a free list handing each evaluation worker its own.
// Slices returned by the path primitives (PathMP, PathDO) alias the
// Router's buffers and are valid only until the next call on the same
// Router. The per-terminal-pair tables the searches read (quadrant masks,
// min-hop DAGs) belong to the topology, not the Router: see
// topology.Pairs.
package route

import (
	"fmt"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// Router holds preallocated routing scratch. The zero value is not usable;
// call NewRouter.
type Router struct {
	sp *graph.SPSolver

	// Path scratch shared by the single-path primitives.
	verts, arcs []int

	// Congestion weight state for the load-aware searches: per-link loads
	// plus a commodity-scaled tie-break bias, consumed inline by the
	// solver's specialized DijkstraLoads (no per-arc closure call).
	loads []float64
	bias  float64

	// Split-routing (SM/SA) merged-path arena.
	accs []accum

	// down, when non-nil, is the active failed-link mask
	// (Options.DownLinks): both weight closures treat masked arcs as
	// unreachable, so every weight-based search reroutes around them.
	down []bool

	// chunkAcc records, for the last split-routed commodity, which merged
	// accumulator each chunk landed on (in chunk order) — the structure
	// the mapper's delta evaluator replays for spliced commodities.
	chunkAcc []int

	// topo is the bound topology and pairs its per-terminal-pair table
	// (quadrant masks, min-hop DAGs and their enumerated paths), nil for
	// topologies that carry none. The table belongs to the topology and
	// is shared by every Router bound to it; holding it here keeps a
	// weakly held table alive while bound (see topology.Pairs).
	topo  topology.Topology
	pairs *topology.PairTable
}

// NewRouter returns a Router with empty scratch; buffers grow on first use.
func NewRouter() *Router {
	return &Router{sp: graph.NewSPSolver()}
}

// Bind points the Router at topo and its pair table. Routing entry points
// call it implicitly.
func (rt *Router) Bind(topo topology.Topology) {
	if rt.topo == topo {
		return
	}
	rt.topo = topo
	rt.pairs = topology.Pairs(topo)
}

// Pair returns the bound topology's table entry for the terminal pair, or
// nil when the topology carries no table. The entry is shared and must
// not be mutated.
func (rt *Router) Pair(srcT, dstT int) *topology.Pair {
	if rt.pairs == nil {
		return nil
	}
	return rt.pairs.Pair(srcT, dstT)
}

// quadrant returns the terminal pair's quadrant router mask, or nil (no
// restriction) when the topology carries no pair table.
func (rt *Router) quadrant(srcT, dstT int) graph.Bits {
	if p := rt.Pair(srcT, dstT); p != nil {
		return p.Quad
	}
	return nil
}

// PathMP computes the congestion-aware shortest path of commodity c from
// terminal srcT to dstT given the current per-link loads — the Fig. 5
// minimum-path step, restricted to the quadrant graph when useQuadrant is
// set. The returned slices alias Router scratch.
func (rt *Router) PathMP(srcT, dstT int, c graph.Commodity, linkLoads []float64, useQuadrant bool) (verts, arcs []int, err error) {
	var mask graph.Bits
	if useQuadrant {
		mask = rt.quadrant(srcT, dstT)
	}
	src, dst := rt.topo.InjectRouter(srcT), rt.topo.EjectRouter(dstT)
	rt.loads = linkLoads
	rt.bias = hopBiasFor(c.ValueMBps)
	verts, arcs, ok := rt.shortestLoads(src, dst, nil, mask)
	rt.loads = nil
	if !ok {
		return nil, nil, fmt.Errorf("route: no path for commodity %d (terminals %d->%d) on %s", //sunmap:alloc error path
			c.ID, srcT, dstT, rt.topo.Name())
	}
	return verts, arcs, nil
}

func (rt *Router) clearLoads() { rt.loads = nil }

// shortest runs the solver over the bound topology's router graph, handling
// the degenerate case where inject and eject are the same router (a
// one-router path, as on the star hub). The search stops once dst settles.
func (rt *Router) shortest(src, dst int, w graph.WeightFunc, mask graph.Bits) (verts, arcs []int, ok bool) {
	if src == dst {
		rt.verts = append(rt.verts[:0], src)
		rt.arcs = rt.arcs[:0]
		return rt.verts, rt.arcs, true
	}
	rt.sp.DijkstraTo(rt.topo.Graph(), src, dst, w, mask)
	rt.verts, rt.arcs, ok = rt.sp.PathTo(src, dst, rt.verts, rt.arcs)
	return rt.verts, rt.arcs, ok
}

// shortestLoads is shortest specialized to the congestion weight
// loads+bias (rt.loads/rt.bias), optionally restricted to a minimum-hop
// dag arc mask and always honoring the active down-link mask. It drives
// the solver's closure-free fast path; results are bit-identical to the
// generic search under the equivalent WeightFunc.
func (rt *Router) shortestLoads(src, dst int, dag, mask graph.Bits) (verts, arcs []int, ok bool) {
	if src == dst {
		rt.verts = append(rt.verts[:0], src)
		rt.arcs = rt.arcs[:0]
		return rt.verts, rt.arcs, true
	}
	rt.sp.DijkstraLoads(rt.topo.Graph(), src, dst, rt.loads, rt.bias, dag, rt.down, mask)
	rt.verts, rt.arcs, ok = rt.sp.PathTo(src, dst, rt.verts, rt.arcs)
	return rt.verts, rt.arcs, ok
}

// resizeFloats returns buf resized to n with every element zeroed.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //sunmap:alloc first-use growth, recycled
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Reset prepares res for re-accumulation over a topology with the given
// link and router counts, reusing its slices. Both RouteInto and the
// mapper's delta evaluator start every routing replay here.
func (r *Result) Reset(numLinks, numRouters int) {
	r.LinkLoads = resizeFloats(r.LinkLoads, numLinks)
	r.RouterLoads = resizeFloats(r.RouterLoads, numRouters)
	r.Paths = r.Paths[:0]
	r.MaxLinkLoad = 0
	r.HopSumMBps = 0
	r.TotalMBps = 0
	r.Feasible = false
}

// FinalizeLoads derives MaxLinkLoad and the feasibility verdict from the
// accumulated LinkLoads — the closing step of every routing run, shared so
// scratch-based callers fold loads exactly like Route does.
func FinalizeLoads(res *Result, capacityMBps float64) {
	res.MaxLinkLoad = 0
	for _, l := range res.LinkLoads {
		if l > res.MaxLinkLoad {
			res.MaxLinkLoad = l
		}
	}
	res.Feasible = capacityMBps <= 0 || res.MaxLinkLoad <= capacityMBps+feasTolerance
}

// RouteInto routes every commodity like Route, but reuses res's slices and
// the Router's scratch so steady-state calls allocate nothing (Paths
// excepted — see Options.LoadsOnly). res is reset first; on error it holds
// partially accumulated state and must not be read.
//
//sunmap:hotpath
func (rt *Router) RouteInto(res *Result, topo topology.Topology, assign []int, comms []graph.Commodity, opts Options) error {
	opts = opts.withDefaults()
	rt.Bind(topo)
	if opts.DownLinks != nil && len(opts.DownLinks) != len(topo.Links()) {
		return fmt.Errorf("route: DownLinks mask has %d entries for %d links of %s", //sunmap:alloc error path
			len(opts.DownLinks), len(topo.Links()), topo.Name())
	}
	rt.down = opts.DownLinks
	defer func() { rt.down = nil }() //sunmap:alloc non-escaping deferred closure, stack-allocated
	res.Reset(len(topo.Links()), topo.NumRouters())
	collect := !opts.LoadsOnly
	for _, c := range comms {
		if c.Src < 0 || c.Src >= len(assign) || c.Dst < 0 || c.Dst >= len(assign) {
			return fmt.Errorf("route: commodity %d endpoints (%d,%d) outside assignment of %d cores", //sunmap:alloc error path
				c.ID, c.Src, c.Dst, len(assign))
		}
		srcT, dstT := assign[c.Src], assign[c.Dst]
		if srcT < 0 || srcT >= topo.NumTerminals() || dstT < 0 || dstT >= topo.NumTerminals() {
			return fmt.Errorf("route: commodity %d mapped to invalid terminals (%d,%d)", c.ID, srcT, dstT) //sunmap:alloc error path
		}
		if srcT == dstT {
			return fmt.Errorf("route: commodity %d has source and destination on terminal %d", c.ID, srcT) //sunmap:alloc error path
		}
		var err error
		switch opts.Function {
		case DimensionOrdered:
			err = rt.routeDO(srcT, dstT, c, res, collect)
		case MinPath:
			// With links down, a surviving path need not stay inside the
			// quadrant (which only bounds fault-free minimum paths), so
			// masked MP searches the full router graph.
			err = rt.routeSingle(srcT, dstT, c, res, !opts.DisableQuadrant && rt.down == nil, collect)
		case SplitMin:
			err = rt.routeSplit(srcT, dstT, c, res, opts.Chunks, true, collect)
		case SplitAll:
			err = rt.routeSplit(srcT, dstT, c, res, opts.Chunks, false, collect)
		default:
			err = fmt.Errorf("route: unknown routing function %v", opts.Function) //sunmap:alloc error path
		}
		if err != nil {
			return err
		}
	}
	FinalizeLoads(res, opts.CapacityMBps)
	return nil
}
