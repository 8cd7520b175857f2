package graph

import "fmt"

// Arc is a directed, identified edge of a Digraph. ID indexes auxiliary
// per-arc state kept by callers (link loads, capacities).
type Arc struct {
	To int
	ID int
}

// Digraph is a minimal adjacency-list directed graph used for NoC router
// graphs and quadrant graphs. Arc weights are supplied per query through a
// WeightFunc so that congestion-aware routing can reuse one graph while the
// loads evolve.
type Digraph struct {
	adj     [][]Arc
	numArcs int
}

// NewDigraph returns a graph with n vertices and no arcs.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{adj: make([][]Arc, n)}
}

// NumVertices returns the vertex count.
func (d *Digraph) NumVertices() int { return len(d.adj) }

// NumArcs returns the number of arcs added so far.
func (d *Digraph) NumArcs() int { return d.numArcs }

// AddArc inserts a directed arc u->v with external identifier id.
func (d *Digraph) AddArc(u, v, id int) {
	if u < 0 || u >= len(d.adj) || v < 0 || v >= len(d.adj) {
		panic(fmt.Sprintf("graph: arc %d->%d out of range [0,%d)", u, v, len(d.adj)))
	}
	d.adj[u] = append(d.adj[u], Arc{To: v, ID: id})
	d.numArcs++
}

// Out returns the arcs leaving u. The returned slice is owned by the graph
// and must not be modified.
func (d *Digraph) Out(u int) []Arc { return d.adj[u] }

// Reset re-dimensions the graph to n vertices with no arcs, retaining the
// per-vertex adjacency backing arrays. Callers that rebuild a small graph
// every iteration — the topology-search inner loop re-deriving a router
// graph from a mutated edge set — stay allocation-free in steady state.
func (d *Digraph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	if cap(d.adj) < n {
		grown := make([][]Arc, n)
		copy(grown, d.adj[:cap(d.adj)])
		d.adj = grown
	}
	d.adj = d.adj[:n]
	for i := range d.adj {
		d.adj[i] = d.adj[i][:0]
	}
	d.numArcs = 0
}

// WeightFunc maps an arc (by tail vertex and arc value) to a non-negative
// cost. Returning math.Inf(1) removes the arc from consideration.
type WeightFunc func(from int, a Arc) float64

// UnitWeight weighs every arc 1; shortest paths become minimum-hop paths.
func UnitWeight(int, Arc) float64 { return 1 }

// Dijkstra computes single-source shortest paths from src under w. It
// returns the distance vector and, for path recovery, the predecessor
// vertex and the arc ID used to reach each vertex (-1 when unreached or at
// the source). Vertices outside `allowed` (when non-nil) are skipped, which
// is how quadrant-graph restriction is applied without copying graphs.
//
// Each call allocates fresh result slices; hot loops should hold an
// SPSolver instead and query it in place.
func (d *Digraph) Dijkstra(src int, w WeightFunc, allowed []bool) (dist []float64, prevV, prevArc []int) {
	var s SPSolver
	s.Dijkstra(d, src, w, allowed)
	n := len(d.adj)
	dist = make([]float64, n)
	prevV = make([]int, n)
	prevArc = make([]int, n)
	for i := 0; i < n; i++ {
		dist[i] = s.Dist(i)
		prevV[i], prevArc[i] = s.Prev(i)
	}
	return dist, prevV, prevArc
}

// HopDistance returns the minimum hop count (arc count) from src to dst
// within `allowed`, or -1 if unreachable. It runs a plain BFS.
func (d *Digraph) HopDistance(src, dst int, allowed []bool) int {
	if src == dst {
		return 0
	}
	n := len(d.adj)
	distv := make([]int, n)
	for i := range distv {
		distv[i] = -1
	}
	if allowed != nil && (!allowed[src] || !allowed[dst]) {
		return -1
	}
	distv[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range d.adj[u] {
			if allowed != nil && !allowed[a.To] {
				continue
			}
			if distv[a.To] == -1 {
				distv[a.To] = distv[u] + 1
				if a.To == dst {
					return distv[a.To]
				}
				queue = append(queue, a.To)
			}
		}
	}
	return -1
}

// MinHopArcs fills out with the arc IDs that lie on at least one
// minimum-hop src->dst path within `allowed` (nil = all vertices).
// Splitting across minimum paths (routing function SM) restricts flow to
// this DAG. out must be sized for the graph's arc IDs; it is cleared
// first, and an unreachable pair leaves it empty.
//
// One BFS from src suffices: arc u->v is on a minimum path exactly when
// v is one hop further from src than u and v itself lies on a minimum
// path to dst, which a sweep in reverse BFS order (farthest first)
// decides for every vertex before its predecessors.
func (d *Digraph) MinHopArcs(src, dst int, allowed, out Bits) {
	out.Clear()
	n := len(d.adj)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if allowed != nil && !allowed.Has(src) {
		return
	}
	dist[src] = 0
	order := append(make([]int, 0, n), src)
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, a := range d.adj[u] {
			if dist[a.To] == -1 && (allowed == nil || allowed.Has(a.To)) {
				dist[a.To] = dist[u] + 1
				order = append(order, a.To)
			}
		}
	}
	if dist[dst] < 0 {
		return
	}
	onPath := make([]bool, n)
	onPath[dst] = true
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if dist[u] >= dist[dst] {
			continue
		}
		for _, a := range d.adj[u] {
			if dist[a.To] == dist[u]+1 && onPath[a.To] {
				out.Set(a.ID)
				onPath[u] = true
			}
		}
	}
}

// BFSDistances returns hop distances from src to every vertex
// (-1 unreachable), following arcs forward or, when reverse is set,
// backward (i.e. distances *to* src). Synthesized topologies use the two
// directions to precompute their minimum-path quadrant masks.
func (d *Digraph) BFSDistances(src int, reverse bool) []int {
	n := len(d.adj)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var radj [][]Arc
	if reverse {
		radj = make([][]Arc, n)
		for u := range d.adj {
			for _, a := range d.adj[u] {
				radj[a.To] = append(radj[a.To], Arc{To: u, ID: a.ID})
			}
		}
	}
	next := func(u int) []Arc {
		if reverse {
			return radj[u]
		}
		return d.adj[u]
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range next(u) {
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
