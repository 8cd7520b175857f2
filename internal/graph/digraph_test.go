package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// grid builds an r x c grid digraph with bidirectional arcs; arc IDs count
// up in insertion order. Vertex (i,j) has index i*c+j.
func grid(r, c int) *Digraph {
	d := NewDigraph(r * c)
	id := 0
	add := func(u, v int) {
		d.AddArc(u, v, id)
		id++
		d.AddArc(v, u, id)
		id++
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				add(i*c+j, i*c+j+1)
			}
			if i+1 < r {
				add(i*c+j, (i+1)*c+j)
			}
		}
	}
	return d
}

func TestDijkstraUnitGrid(t *testing.T) {
	d := grid(3, 4)
	dist, _, _ := d.Dijkstra(0, UnitWeight, nil)
	// Manhattan distance on grid.
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			want := float64(i + j)
			if got := dist[i*4+j]; got != want {
				t.Errorf("dist(0 -> (%d,%d)) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// shortestPath returns the vertex sequence and arc-ID sequence of a
// shortest src->dst path under w restricted to `allowed` (nil = all). The
// boolean reports reachability.
func shortestPath(d *Digraph, src, dst int, w WeightFunc, allowed []bool) (verts, arcs []int, ok bool) {
	var s SPSolver
	s.Dijkstra(d, src, w, allowed)
	return s.PathTo(src, dst, nil, nil)
}

func TestShortestPathRecovery(t *testing.T) {
	d := grid(3, 4)
	verts, arcs, ok := shortestPath(d, 0, 11, UnitWeight, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if len(verts) != 6 || len(arcs) != 5 {
		t.Fatalf("path length = %d verts %d arcs, want 6/5", len(verts), len(arcs))
	}
	if verts[0] != 0 || verts[len(verts)-1] != 11 {
		t.Errorf("endpoints %d..%d, want 0..11", verts[0], verts[len(verts)-1])
	}
	// consecutive vertices must be adjacent
	for i := 0; i+1 < len(verts); i++ {
		found := false
		for _, a := range d.Out(verts[i]) {
			if a.To == verts[i+1] && a.ID == arcs[i] {
				found = true
			}
		}
		if !found {
			t.Errorf("step %d: %d->%d not an arc", i, verts[i], verts[i+1])
		}
	}
}

func TestDijkstraRespectsAllowed(t *testing.T) {
	d := grid(3, 3)
	// Only allow the top row and right column: 0 1 2, 5, 8.
	allowed := make([]bool, 9)
	for _, v := range []int{0, 1, 2, 5, 8} {
		allowed[v] = true
	}
	dist, _, _ := d.Dijkstra(0, UnitWeight, allowed)
	if dist[8] != 4 {
		t.Errorf("restricted dist = %g, want 4", dist[8])
	}
	if !math.IsInf(dist[4], 1) {
		t.Errorf("forbidden vertex reached: dist=%g", dist[4])
	}
	// Unreachable when the source is excluded.
	allowed[0] = false
	dist, _, _ = d.Dijkstra(0, UnitWeight, allowed)
	if !math.IsInf(dist[8], 1) {
		t.Error("path found from excluded source")
	}
}

func TestDijkstraWeightFunc(t *testing.T) {
	// Two routes 0->3: direct arc cost 10 vs 0->1->2->3 cost 3.
	d := NewDigraph(4)
	d.AddArc(0, 3, 0)
	d.AddArc(0, 1, 1)
	d.AddArc(1, 2, 2)
	d.AddArc(2, 3, 3)
	w := func(_ int, a Arc) float64 {
		if a.ID == 0 {
			return 10
		}
		return 1
	}
	verts, _, ok := shortestPath(d, 0, 3, w, nil)
	if !ok || len(verts) != 4 {
		t.Fatalf("path %v ok=%v, want detour of 4 vertices", verts, ok)
	}
	// Infinite weight removes the arc entirely.
	w2 := func(_ int, a Arc) float64 {
		if a.ID != 0 {
			return math.Inf(1)
		}
		return 10
	}
	verts, _, ok = shortestPath(d, 0, 3, w2, nil)
	if !ok || len(verts) != 2 {
		t.Fatalf("direct path %v ok=%v, want 0->3", verts, ok)
	}
}

func TestHopDistance(t *testing.T) {
	d := grid(4, 4)
	if got := d.HopDistance(0, 15, nil); got != 6 {
		t.Errorf("HopDistance corner-to-corner = %d, want 6", got)
	}
	if got := d.HopDistance(5, 5, nil); got != 0 {
		t.Errorf("HopDistance self = %d, want 0", got)
	}
	// Disconnected when allowed excludes everything but the endpoints.
	allowed := make([]bool, 16)
	allowed[0], allowed[15] = true, true
	if got := d.HopDistance(0, 15, allowed); got != -1 {
		t.Errorf("HopDistance disconnected = %d, want -1", got)
	}
}

// countBits counts the IDs below n in b.
func countBits(b Bits, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if b.Has(i) {
			c++
		}
	}
	return c
}

func TestAllMinHopArcs(t *testing.T) {
	d := grid(3, 3)
	// 0 -> 8: all monotone right/down paths; the DAG has 12 arcs
	// (each of the 12 rightward/downward arcs inside the box).
	arcs := NewBits(d.NumArcs())
	d.MinHopArcs(0, 8, nil, arcs)
	if n := countBits(arcs, d.NumArcs()); n != 12 {
		t.Errorf("min-hop DAG has %d arcs, want 12", n)
	}
	// Every arc in the DAG lies on a path of length 4: verify by checking
	// dist(src,u)+1+dist(v,dst) == 4 for the arc u->v.
	for u := 0; u < 9; u++ {
		for _, a := range d.Out(u) {
			if !arcs.Has(a.ID) {
				continue
			}
			du := d.HopDistance(0, u, nil)
			dv := d.HopDistance(a.To, 8, nil)
			if du+1+dv != 4 {
				t.Errorf("arc %d->%d on DAG but %d+1+%d != 4", u, a.To, du, dv)
			}
		}
	}
	// Unreachable pair yields an empty set.
	allowed := NewBits(9)
	allowed.Set(0)
	allowed.Set(8)
	d.MinHopArcs(0, 8, allowed, arcs)
	if n := countBits(arcs, d.NumArcs()); n != 0 {
		t.Errorf("disconnected min-hop DAG has %d arcs, want 0", n)
	}
}

func TestAddArcPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddArc out of range did not panic")
		}
	}()
	d := NewDigraph(2)
	d.AddArc(0, 5, 0)
}

func TestDijkstraPanicsOnNegativeWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight did not panic")
		}
	}()
	d := NewDigraph(2)
	d.AddArc(0, 1, 0)
	d.Dijkstra(0, func(int, Arc) float64 { return -1 }, nil)
}

// Property: on random graphs with random positive weights, Dijkstra
// distances satisfy the triangle inequality over arcs:
// dist[v] <= dist[u] + w(u,v).
func TestDijkstraTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := NewDigraph(n)
		weights := make(map[int]float64)
		id := 0
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			weights[id] = rng.Float64()*10 + 0.01
			d.AddArc(u, v, id)
			id++
		}
		w := func(_ int, a Arc) float64 { return weights[a.ID] }
		dist, _, _ := d.Dijkstra(0, w, nil)
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, a := range d.Out(u) {
				if dist[a.To] > dist[u]+weights[a.ID]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: BFS hop distance equals Dijkstra distance under unit weights.
func TestHopDistanceMatchesDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := NewDigraph(n)
		id := 0
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			d.AddArc(u, v, id)
			id++
		}
		dist, _, _ := d.Dijkstra(0, UnitWeight, nil)
		for v := 0; v < n; v++ {
			hd := d.HopDistance(0, v, nil)
			if hd == -1 {
				if !math.IsInf(dist[v], 1) {
					return false
				}
				continue
			}
			if float64(hd) != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
