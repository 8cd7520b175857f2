package search

import (
	"math"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// cand is one point of the search space: an undirected inter-router edge
// set over nR routers plus a terminal→router attachment. The layout is
// chosen so every mutation operator and the structural constraint check
// run without allocating: adjacency is a dense maxR×maxR edge-index
// matrix (eidx, -1 when absent) mirrored by a swap-remove edge list with
// endpoints normalized u < v.
type cand struct {
	maxR  int
	nR    int
	att   []int    // terminal -> router
	tcnt  []int    // router -> attached terminal count (len maxR)
	deg   []int    // router -> undirected inter-router degree (len maxR)
	eidx  []int32  // maxR*maxR -> index into edges, -1 when absent
	edges [][2]int // undirected edges, u < v
	nbr   []int    // mutation scratch (not part of the candidate state)
}

func newCand(maxR, terms int) *cand {
	c := &cand{
		maxR:  maxR,
		att:   make([]int, terms),
		tcnt:  make([]int, maxR),
		deg:   make([]int, maxR),
		eidx:  make([]int32, maxR*maxR),
		edges: make([][2]int, 0, 4*maxR),
	}
	for i := range c.eidx {
		c.eidx[i] = -1
	}
	return c
}

// copyFrom overwrites c with o's state, reusing c's buffers. The nbr
// scratch is intentionally not copied.
func (c *cand) copyFrom(o *cand) {
	c.maxR = o.maxR
	c.nR = o.nR
	c.att = append(c.att[:0], o.att...)
	c.tcnt = append(c.tcnt[:0], o.tcnt...)
	c.deg = append(c.deg[:0], o.deg...)
	c.eidx = append(c.eidx[:0], o.eidx...)
	c.edges = append(c.edges[:0], o.edges...)
}

func (c *cand) hasEdge(u, v int) bool { return c.eidx[u*c.maxR+v] >= 0 }

func (c *cand) addEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	i := int32(len(c.edges))
	c.edges = append(c.edges, [2]int{u, v}) //sunmap:alloc amortized edge-list growth; capacity bounded by maxR*(maxR-1)/2
	c.eidx[u*c.maxR+v] = i
	c.eidx[v*c.maxR+u] = i
	c.deg[u]++
	c.deg[v]++
}

func (c *cand) removeEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	i := c.eidx[u*c.maxR+v]
	last := len(c.edges) - 1
	moved := c.edges[last]
	c.edges[i] = moved
	c.eidx[moved[0]*c.maxR+moved[1]] = i
	c.eidx[moved[1]*c.maxR+moved[0]] = i
	c.edges = c.edges[:last]
	c.eidx[u*c.maxR+v] = -1
	c.eidx[v*c.maxR+u] = -1
	c.deg[u]--
	c.deg[v]--
}

// neighbors appends r's adjacent routers (ascending) to dst and returns it.
func (c *cand) neighbors(r int, dst []int) []int {
	row := r * c.maxR
	for v := 0; v < c.nR; v++ {
		if c.eidx[row+v] >= 0 {
			dst = append(dst, v) //sunmap:alloc amortized growth into caller-owned neighbor scratch
		}
	}
	return dst
}

// searchTopo is the throwaway topology.Topology the annealing inner loop
// routes over. It is rebuilt in place from the current candidate before
// every evaluation — legal because the loop routes with MinPath +
// DisableQuadrant, and because a type outside package topology carries no
// pair table (topology.Pairs returns nil), so no quadrant mask or min-hop
// DAG can go stale while the Router's Bind identity check keeps
// short-circuiting on the stable pointer. It must never escape the chain
// that owns it; winners are materialized through topology.NewCustom
// instead.
type searchTopo struct {
	terms int
	g     *graph.Digraph
	links []topology.Link
	att   []int
	deg   []int
}

func newSearchTopo(maxR, terms int) *searchTopo {
	return &searchTopo{terms: terms, g: graph.NewDigraph(maxR)}
}

func (st *searchTopo) rebuild(c *cand) {
	st.g.Reset(c.nR)
	st.links = st.links[:0]
	// Walk the adjacency matrix in (u, v) order rather than the edge
	// list's churned insertion order: link IDs and arc order are then
	// canonical — identical to the sorted BiLinks the winner is
	// materialized with — so the route set (and hence the CDG this loop
	// certifies acyclic) transfers exactly to the NewCustom topology.
	for u := 0; u < c.nR; u++ {
		row := u * c.maxR
		for v := u + 1; v < c.nR; v++ {
			if c.eidx[row+v] < 0 {
				continue
			}
			id := len(st.links)
			st.links = append(st.links, //sunmap:alloc amortized link-arena growth, reused across materializations
				topology.Link{ID: id, From: u, To: v},
				topology.Link{ID: id + 1, From: v, To: u})
			st.g.AddArc(u, v, id)
			st.g.AddArc(v, u, id+1)
		}
	}
	st.att = append(st.att[:0], c.att...)
	st.deg = append(st.deg[:0], c.deg[:c.nR]...)
}

func (st *searchTopo) Name() string                     { return "search-cand" }
func (st *searchTopo) Kind() topology.Kind              { return topology.Synth }
func (st *searchTopo) NumTerminals() int                { return st.terms }
func (st *searchTopo) NumRouters() int                  { return st.g.NumVertices() }
func (st *searchTopo) Links() []topology.Link           { return st.links }
func (st *searchTopo) Graph() *graph.Digraph            { return st.g }
func (st *searchTopo) InjectRouter(t int) int           { return st.att[t] }
func (st *searchTopo) EjectRouter(t int) int            { return st.att[t] }
func (st *searchTopo) RouterDegree(r int) (in, out int) { return st.deg[r], st.deg[r] }

// Quadrant returns the full router set: the inner loop routes with
// quadrant restriction disabled, so the mask only exists to satisfy the
// interface (and allocates — it must stay off the hot path).
func (st *searchTopo) Quadrant(src, dst int) []bool {
	mask := make([]bool, st.g.NumVertices())
	for i := range mask {
		mask[i] = true
	}
	return mask
}

func (st *searchTopo) MinHops(src, dst int) int {
	d := st.g.BFSDistances(st.att[src], false)[st.att[dst]]
	if d < 0 {
		return -1
	}
	return d + 1
}

func (st *searchTopo) Position(r int) (x, y float64) {
	return gridPos(r, st.g.NumVertices())
}

func (st *searchTopo) TerminalPosition(t int) (x, y float64) {
	x, y = gridPos(st.att[t], st.g.NumVertices())
	return x + 0.25, y + 0.25
}

// gridPos places index i on a near-square grid with 2-unit pitch, the
// placement idiom the synthesized-topology constructors use to seed the
// floorplanner.
func gridPos(i, n int) (x, y float64) {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	return 2 * float64(i%cols), 2 * float64(i/cols)
}
