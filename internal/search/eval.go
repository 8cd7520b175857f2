package search

import (
	"math/bits"

	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
)

// overloadPenalty scales the fitness penalty per unit of relative link
// overload; it must dwarf any hop-count difference so the annealer never
// trades feasibility for delay.
const overloadPenalty = 10.0

// evaluator owns all scratch of one chain's mutate→evaluate→accept cycle.
// Evaluation is three stages, each rejecting outright (a rejected
// candidate is never accepted, making radix bounds, connectivity and
// deadlock freedom hard constraints rather than penalty terms):
//
//  1. structural design rules: switch-count window, per-router radix and
//     terminal caps, whole-graph connectivity;
//  2. routability: congestion-aware minimum-path routing of every
//     commodity (identity core→terminal assignment);
//  3. deadlock freedom: the channel-dependency graph of the exact routes
//     just installed must be acyclic.
//
// Everything is rebuilt in place per evaluation; steady state allocates
// nothing (see TestSearchInnerLoopAllocBudget). Verdicts of candidates
// that pass stage 1 are memoized by exact structure (see verdictMemo).
type evaluator struct {
	b      bounds
	memo   *verdictMemo // nil evaluates every candidate afresh
	topo   *searchTopo
	rt     *route.Router
	res    route.Result
	ropts  route.Options
	comms  []graph.Commodity
	assign []int

	// fitness shaping
	alphaEdge   float64 // cost per bidirectional link
	alphaRouter float64 // cost per switch

	// connectivity scratch (epoch-stamped visited marks)
	seen  []int32
	queue []int32
	epoch int32

	// channel-dependency-graph scratch (Kahn's algorithm)
	succ  [][]int32
	indeg []int32
	cq    []int32
}

func newEvaluator(comms []graph.Commodity, terms int, b bounds, mopts mapping.Options) *evaluator {
	ev := &evaluator{
		b:     b,
		topo:  newSearchTopo(b.maxR, terms),
		rt:    route.NewRouter(),
		comms: comms,
		ropts: route.Options{
			Function:        route.MinPath,
			CapacityMBps:    mopts.CapacityMBps,
			DisableQuadrant: true,
		},
		memo:   newVerdictMemo(b.maxR, terms, memoMaxSlots),
		assign: make([]int, terms),
		seen:   make([]int32, b.maxR),
		queue:  make([]int32, 0, b.maxR),
	}
	for i := range ev.assign {
		ev.assign[i] = i
	}
	// The inner loop cannot afford a full map (placement + floorplan +
	// power) per candidate, so fitness is the routing core of the
	// objective — bandwidth-weighted average hops under congestion-aware
	// MP — plus small structural terms steering toward cheaper networks.
	// Under the delay objective the structural terms are tie-breaks; under
	// area/power they carry real weight, since links and switches are what
	// those objectives charge for.
	if mopts.Objective == mapping.MinDelay {
		ev.alphaEdge, ev.alphaRouter = 0.002, 0.001
	} else {
		ev.alphaEdge, ev.alphaRouter = 0.05, 0.02
	}
	return ev
}

// eval scores a candidate, reporting ok=false when any hard constraint
// fails.
//
// The verdict is a pure function of the structure the memo key captures
// (router count, attachment, edge set): comms, bounds and options are
// fixed per evaluator, and route rebuilds every piece of scratch it
// reads. Nothing here may read state left over from an earlier
// candidate, or a memo hit would stop being the verdict a fresh
// evaluation returns (TestSearchMemoMatchesFreshEval).
func (ev *evaluator) eval(c *cand) (fit float64, ok bool) {
	if !ev.checkStructure(c) {
		return 0, false
	}
	if ev.memo == nil {
		return ev.route(c)
	}
	slot, hit := ev.memo.probe(c)
	if hit {
		return ev.memo.fits[slot], ev.memo.oks[slot]
	}
	fit, ok = ev.route(c)
	ev.memo.store(slot, fit, ok)
	return fit, ok
}

// route runs stages 2 and 3 on a candidate that passed the structure
// check and scores it.
func (ev *evaluator) route(c *cand) (fit float64, ok bool) {
	ev.topo.rebuild(c)
	if err := ev.rt.RouteInto(&ev.res, ev.topo, ev.assign, ev.comms, ev.ropts); err != nil {
		return 0, false
	}
	if !ev.acyclicCDG(ev.res.Paths, len(ev.topo.links)) {
		return 0, false
	}
	return ev.fitness(c), true
}

func (ev *evaluator) fitness(c *cand) float64 {
	f := ev.res.AvgHops()
	if capMBps := ev.ropts.CapacityMBps; capMBps > 0 && ev.res.MaxLinkLoad > capMBps {
		f += overloadPenalty * (ev.res.MaxLinkLoad/capMBps - 1)
	}
	return f + ev.alphaEdge*float64(len(c.edges)) + ev.alphaRouter*float64(c.nR)
}

// checkStructure verifies the pure design rules: switch-count window,
// per-router radix and terminal-attachment caps, and router-graph
// connectivity.
func (ev *evaluator) checkStructure(c *cand) bool {
	if c.nR < ev.b.minR || c.nR > ev.b.maxR {
		return false
	}
	for r := 0; r < c.nR; r++ {
		if c.deg[r] > ev.b.maxRadix || c.tcnt[r] > ev.b.maxCores {
			return false
		}
	}
	if len(c.edges) < c.nR-1 {
		return false
	}
	return ev.connected(c)
}

func (ev *evaluator) connected(c *cand) bool {
	if c.nR <= 1 {
		return true
	}
	ev.epoch++
	ev.queue = append(ev.queue[:0], 0)
	ev.seen[0] = ev.epoch
	visited := 1
	for len(ev.queue) > 0 {
		u := int(ev.queue[len(ev.queue)-1])
		ev.queue = ev.queue[:len(ev.queue)-1]
		row := u * c.maxR
		for v := 0; v < c.nR; v++ {
			if c.eidx[row+v] >= 0 && ev.seen[v] != ev.epoch {
				ev.seen[v] = ev.epoch
				visited++
				ev.queue = append(ev.queue, int32(v)) //sunmap:alloc amortized BFS queue growth, reused across evals
			}
		}
	}
	return visited == c.nR
}

// acyclicCDG reports whether the channel-dependency graph of the routed
// paths — a node per directed link, an arc for every consecutive link
// pair some flow traverses — is acyclic (Kahn's algorithm over reused
// buffers). An acyclic CDG is Dally/Seitz deadlock freedom for the exact
// routes the network would install.
func (ev *evaluator) acyclicCDG(paths []route.FlowPath, numLinks int) bool {
	if cap(ev.succ) < numLinks {
		grown := make([][]int32, numLinks) //sunmap:alloc first-use growth of CDG successor arena, recycled
		copy(grown, ev.succ[:cap(ev.succ)])
		ev.succ = grown
	}
	ev.succ = ev.succ[:numLinks]
	for i := range ev.succ {
		ev.succ[i] = ev.succ[i][:0]
	}
	if cap(ev.indeg) < numLinks {
		ev.indeg = make([]int32, numLinks) //sunmap:alloc first-use growth of CDG indegree scratch, recycled
	}
	ev.indeg = ev.indeg[:numLinks]
	for i := range ev.indeg {
		ev.indeg[i] = 0
	}
	for _, p := range paths {
		for i := 0; i+1 < len(p.LinkIDs); i++ {
			a, b := p.LinkIDs[i], p.LinkIDs[i+1]
			ev.succ[a] = append(ev.succ[a], int32(b)) //sunmap:alloc amortized per-link successor growth, reused across evals
			ev.indeg[b]++
		}
	}
	ev.cq = ev.cq[:0]
	for i := 0; i < numLinks; i++ {
		if ev.indeg[i] == 0 {
			ev.cq = append(ev.cq, int32(i)) //sunmap:alloc amortized Kahn queue growth, reused across evals
		}
	}
	processed := 0
	for len(ev.cq) > 0 {
		u := ev.cq[len(ev.cq)-1]
		ev.cq = ev.cq[:len(ev.cq)-1]
		processed++
		for _, v := range ev.succ[u] {
			ev.indeg[v]--
			if ev.indeg[v] == 0 {
				ev.cq = append(ev.cq, v) //sunmap:alloc amortized Kahn queue growth, reused across evals
			}
		}
	}
	return processed == numLinks
}

// Memo sizing: at most memoMaxSlots slots per chain, and fewer when the
// key is long, so a large MaxSwitches cannot blow up memory. At 20
// routers and 20 terminals a slot is 57 B and the table 57 KiB.
const (
	memoMaxSlots = 1024
	memoMaxBytes = 256 << 10
)

// verdictMemo is a fixed-size, direct-mapped table of eval verdicts,
// keyed by the exact packed candidate structure: the router count, the
// terminal→router attachment, and the upper-triangle edge bitset over
// maxR. An annealing chain oscillates between recent neighbours, so
// nearly half of its routed evaluations re-score a structure it already
// scored; a hit skips the rebuild, the routing and the CDG check.
//
// The hash only picks the slot: a hit needs the full key to match, and a
// miss overwrites the slot. An empty slot's all-zero key matches no
// probe, since every probed candidate has at least one router. The table is allocated once and never
// checkpointed — a resumed chain starts cold and, eval being pure,
// returns the same verdicts.
type verdictMemo struct {
	maxR    int
	attBits int // bits per packed attachment entry
	attW    int // key words holding the attachment, after the router count
	words   int // key length in uint64 words
	mask    uint64

	key  []uint64 // the last probed candidate's key
	keys []uint64 // slot i's key is keys[i*words : (i+1)*words]
	fits []float64
	oks  []bool
}

// newVerdictMemo sizes a table for candidates of up to maxR routers and
// terms terminals: the largest power of two up to maxSlots whose slots
// fit in memoMaxBytes, and never fewer than one.
func newVerdictMemo(maxR, terms, maxSlots int) *verdictMemo {
	m := &verdictMemo{maxR: maxR, attBits: bits.Len(uint(maxR - 1))}
	perWord := 64 / m.attBits
	m.attW = (terms + perWord - 1) / perWord
	m.words = 1 + m.attW + (maxR*(maxR-1)/2+63)/64
	slotBytes := 8*m.words + 8 + 1
	slots := 1
	for slots*2 <= maxSlots && slots*2*slotBytes <= memoMaxBytes {
		slots *= 2
	}
	m.mask = uint64(slots - 1)
	m.key = make([]uint64, m.words)
	m.keys = make([]uint64, slots*m.words)
	m.fits = make([]float64, slots)
	m.oks = make([]bool, slots)
	return m
}

// probe packs c's key, hashes it to a slot and reports whether the slot
// holds exactly that key.
func (m *verdictMemo) probe(c *cand) (slot int, hit bool) {
	k := m.key
	clear(k)
	k[0] = uint64(c.nR)
	perWord := 64 / m.attBits
	for t, r := range c.att {
		k[1+t/perWord] |= uint64(r) << (t % perWord * m.attBits)
	}
	e := k[1+m.attW:]
	for _, ed := range c.edges {
		u, v := ed[0], ed[1] // u < v
		i := u*(2*m.maxR-u-1)/2 + v - u - 1
		e[i>>6] |= 1 << (i & 63)
	}
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range k {
		h = (h ^ w) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h = (h ^ h>>27) * 0x94d049bb133111eb
	slot = int((h ^ h>>31) & m.mask)
	stored := m.keys[slot*m.words : (slot+1)*m.words]
	for i, w := range k {
		if stored[i] != w {
			return slot, false
		}
	}
	return slot, true
}

// store records a verdict for the key of the last probe in its slot.
func (m *verdictMemo) store(slot int, fit float64, ok bool) {
	copy(m.keys[slot*m.words:], m.key)
	m.fits[slot], m.oks[slot] = fit, ok
}
