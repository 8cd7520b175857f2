package topology

import (
	"slices"
	"sync/atomic"
	"weak"

	"sunmap/internal/graph"
)

// MaxPairPaths caps how many minimum-hop paths a Pair enumerates. Pairs
// with more paths keep only their masks; split routing searches them.
const MaxPairPaths = 16

// Pair is the load-independent routing region of one terminal pair: what
// every quadrant-restricted search and every split-routing chunk between
// the two terminals reads, computed once per topology. It is immutable
// and shared by every goroutine routing over the topology, and by every
// terminal pair with the same inject and eject routers.
type Pair struct {
	// Quad is the quadrant router mask (Section 4.3), as a bitset over
	// router IDs.
	Quad graph.Bits
	// QuadLinks holds the links with both endpoints in Quad: every arc a
	// quadrant-restricted search can read a weight from.
	QuadLinks graph.Bits
	// DAG holds the links on at least one minimum-hop inject->eject path
	// inside the quadrant: the region split-minimal routing spreads a
	// commodity over.
	DAG graph.Bits
	// QuadIsDAG reports that QuadLinks equals DAG word for word: every
	// arc inside the quadrant lies on a minimum-hop path, so a
	// quadrant-restricted search covers exactly the DAG's paths. It holds
	// for every butterfly and Clos pair and every pair whose inject and
	// eject router coincide.
	QuadIsDAG bool

	paths    []int32 // numPaths paths of hops link IDs each, path-major
	hops     int32   // links on every DAG path
	numPaths int32   // enumerated DAG paths; 0 when none or more than MaxPairPaths
}

// NumPaths returns how many inject->eject paths the DAG has when that
// number is between 1 and MaxPairPaths, and 0 otherwise (unreachable, or
// too many paths to enumerate). A pair whose inject and eject router
// coincide has one path of no links.
func (p *Pair) NumPaths() int { return int(p.numPaths) }

// Path returns the link IDs of enumerated path k, 0 <= k < NumPaths.
func (p *Pair) Path(k int) []int32 {
	h := int(p.hops)
	return p.paths[k*h : (k+1)*h]
}

// PairTable holds the Pair of every terminal pair of one topology,
// filled lazily on first lookup. Every topology in this package derives a
// pair's quadrant from its inject and eject routers alone, so the table
// keeps one entry per router pair and terminal pairs sharing both routers
// (the terminals of one butterfly or Clos switch, the cores of one
// synthesized switch) share it. Lookups are safe for concurrent use; two
// goroutines racing on an empty entry build identical Pairs and one wins.
type PairTable struct {
	topo          Topology
	inject, eject []int // terminal -> router, shared with the topology
	routers       int
	entries       []atomic.Pointer[Pair] // inject router * routers + eject router
	filled        atomic.Int64
}

// Pairs returns t's pair table, or nil when t does not carry one. Every
// library and custom topology carries one. Topologies implemented outside
// this package — the topology search's candidate, which is rebuilt in
// place between evaluations — never do, so no table can go stale.
//
// An interned library topology holds its table for the life of the
// process. Any other topology — a synthesized candidate, rebuilt by every
// selection, or a fresh build — holds it weakly: the table lives while a
// caller (a bound route.Router) holds it, and is rebuilt on demand after
// the garbage collector reclaims it. The process-wide custom registry
// keeps every synthesized candidate reachable by name, and must not keep
// their tables too.
func Pairs(t Topology) *PairTable {
	if h, ok := t.(interface{ pairTable(Topology) *PairTable }); ok {
		return h.pairTable(t)
	}
	return nil
}

// pairTable returns the base's table, creating it when none is live. self
// is the concrete topology embedding b, whose Quadrant the entries
// consult.
func (b *base) pairTable(self Topology) *PairTable {
	if b.pinned != nil {
		return b.pinned
	}
	b.pairsMu.Lock()
	defer b.pairsMu.Unlock()
	if pt := b.pairs.Value(); pt != nil {
		return pt
	}
	pt := b.newPairTable(self)
	b.pairs = weak.Make(pt)
	return pt
}

// pin gives an interned topology a table held for the life of the
// process. It runs before the topology is published to other goroutines.
func (b *base) pin(self Topology) { b.pinned = b.newPairTable(self) }

func (b *base) newPairTable(self Topology) *PairTable {
	n := b.rg.NumVertices()
	return &PairTable{
		topo:    self,
		inject:  b.inject,
		eject:   b.eject,
		routers: n,
		entries: make([]atomic.Pointer[Pair], n*n),
	}
}

// Pair returns the entry of terminal pair (src, dst), building it on
// first use.
//
//sunmap:hotpath
func (pt *PairTable) Pair(src, dst int) *Pair {
	slot := &pt.entries[pt.inject[src]*pt.routers+pt.eject[dst]]
	if p := slot.Load(); p != nil {
		return p
	}
	p := newPair(pt.topo, src, dst)
	if slot.CompareAndSwap(nil, p) {
		pt.filled.Add(1)
		return p
	}
	return slot.Load()
}

// Filled returns how many entries (router pairs) have been built so far.
func (pt *PairTable) Filled() int { return int(pt.filled.Load()) }

// newPair computes the entry of terminal pair (src, dst) of t.
func newPair(t Topology, src, dst int) *Pair {
	g := t.Graph()
	links := t.Links()
	qw, lw := (t.NumRouters()+63)/64, (len(links)+63)/64
	words := make([]uint64, qw+2*lw) //sunmap:alloc once-per-router-pair table fill, cold after warmup
	p := &Pair{                      //sunmap:alloc once-per-router-pair table fill, cold after warmup
		Quad:      words[:qw:qw],
		QuadLinks: words[qw : qw+lw : qw+lw],
		DAG:       words[qw+lw:],
	}
	for r, ok := range t.Quadrant(src, dst) {
		if ok {
			p.Quad.Set(r)
		}
	}
	for _, l := range links {
		if p.Quad.Has(l.From) && p.Quad.Has(l.To) {
			p.QuadLinks.Set(l.ID)
		}
	}
	s, d := t.InjectRouter(src), t.EjectRouter(dst)
	g.MinHopArcs(s, d, p.Quad, p.DAG)
	p.QuadIsDAG = slices.Equal(p.QuadLinks, p.DAG)
	var buf []int32
	if n, ok := p.walk(g, s, d, 0, nil, &buf); ok && n > 0 {
		p.paths = append([]int32(nil), buf...) //sunmap:alloc once-per-router-pair table fill, cold after warmup
		p.numPaths = int32(n)
		p.hops = int32(len(buf) / n)
	}
	return p
}

// walk extends the partial path stack, which ends at u, depth-first
// towards d, appending every completed path to buf. n counts the paths
// found so far; walk returns the new count, or false once it would pass
// MaxPairPaths. Every DAG link lies on some s->d path and advances the
// hop distance from s by one, so the walk never dead-ends and every path
// has the same length.
func (p *Pair) walk(g *graph.Digraph, u, d, n int, stack []int32, buf *[]int32) (int, bool) {
	if u == d {
		if n == MaxPairPaths {
			return n, false
		}
		*buf = append(*buf, stack...) //sunmap:alloc once-per-router-pair table fill, cold after warmup
		return n + 1, true
	}
	for _, a := range g.Out(u) {
		if !p.DAG.Has(a.ID) {
			continue
		}
		var ok bool
		if n, ok = p.walk(g, a.To, d, n, append(stack, int32(a.ID)), buf); !ok { //sunmap:alloc once-per-router-pair table fill, cold after warmup
			return n, false
		}
	}
	return n, true
}
