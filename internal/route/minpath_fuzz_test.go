package route

import (
	"math/rand"
	"slices"
	"testing"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// FuzzMinPathMatchesDijkstra is the differential gate for MP's table
// path: on a random topology and loads drawn to force exact ties (all
// zero, or a few repeated values), PathMP with the quadrant restriction
// must return, for every terminal pair, the very path DijkstraLoads finds
// over the pair's quadrant — same vertices, same arcs, same ok bit —
// whether the path came from the pair's enumerated paths or from the
// search.
func FuzzMinPathMatchesDijkstra(f *testing.F) {
	topos := splitFuzzTopos(f)
	for i := range topos {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(uint8(i), mode, int64(i)+int64(mode)*101)
		}
	}
	f.Fuzz(func(t *testing.T, ti, mode uint8, seed int64) {
		checkMinPath(t, topos[int(ti)%len(topos)], mode, seed)
	})
}

// TestMinPathTableCoverage runs the fuzz body over every topology and
// load mode and requires both outcomes to occur among pairs whose
// quadrant is their DAG — paths served from the table and paths handed
// to the search on a tie — so the differential check cannot pass
// vacuously.
func TestMinPathTableCoverage(t *testing.T) {
	topos := splitFuzzTopos(t)
	var fast, searched int
	for i, topo := range topos {
		for mode := uint8(0); mode < 3; mode++ {
			f, s := checkMinPath(t, topo, mode, int64(i)*7+int64(mode))
			fast += f
			searched += s
		}
	}
	if fast == 0 || searched == 0 {
		t.Fatalf("%d paths from the table, %d searched on a tie; both must occur", fast, searched)
	}
}

// checkMinPath routes one commodity per terminal pair in a seeded order
// over loads drawn by mode — all zero, a few repeated values, or uniform
// — adding each routed path's bandwidth to the loads as MP routing does,
// and fails the test when PathMP's path differs from DijkstraLoads's over
// the quadrant. It returns, among pairs whose quadrant is their DAG, how
// many paths the table served and how many fell back to the search.
func checkMinPath(t *testing.T, topo topology.Topology, mode uint8, seed int64) (fast, searched int) {
	rng := rand.New(rand.NewSource(seed))
	loads := make([]float64, len(topo.Links()))
	levels := []float64{0, 100, 250}
	for i := range loads {
		switch mode % 3 {
		case 1:
			loads[i] = levels[rng.Intn(len(levels))]
		case 2:
			loads[i] = 500 * rng.Float64()
		}
	}
	n := topo.NumTerminals()
	rt := NewRouter()
	rt.Bind(topo)
	for _, k := range rng.Perm(n * n) {
		srcT, dstT := k/n, k%n
		if srcT == dstT {
			continue
		}
		c := graph.Commodity{ID: k, ValueMBps: []float64{64, 100, 333.3}[rng.Intn(3)]}
		pair := rt.Pair(srcT, dstT)
		src, dst := topo.InjectRouter(srcT), topo.EjectRouter(dstT)
		rt.loads, rt.bias = loads, hopBiasFor(c.ValueMBps)
		if pair.QuadIsDAG {
			if _, _, ok := rt.cheapestPath(pair, src); ok {
				fast++
			} else {
				searched++
			}
		}
		wantV, wantA, wantOK := rt.shortestLoads(src, dst, nil, pair.Quad)
		wantV, wantA = slices.Clone(wantV), slices.Clone(wantA)
		verts, arcs, err := rt.PathMP(srcT, dstT, c, loads, true)
		if (err == nil) != wantOK || !slices.Equal(verts, wantV) || !slices.Equal(arcs, wantA) {
			t.Fatalf("%s %d->%d: PathMP %v/%v (err %v), DijkstraLoads %v/%v (ok %v)",
				topo.Name(), srcT, dstT, verts, arcs, err, wantV, wantA, wantOK)
		}
		for _, id := range arcs {
			loads[id] += c.ValueMBps
		}
	}
	return fast, searched
}
