package route

import (
	"math/rand"
	"slices"
	"testing"

	"sunmap/internal/topology"
)

// splitFuzzTopos covers every library family — including the octagon and
// the star hub, whose inject and eject routers coincide — plus one
// synthesized topology. mesh-4x5 has terminal pairs with more than
// topology.MaxPairPaths minimum paths, the enumeration's fallback case.
func splitFuzzTopos(tb testing.TB) []topology.Topology {
	synth, err := topology.NewCustom(topology.CustomSpec{
		Name:        "synth-fuzz-ring6",
		NumRouters:  6,
		BiLinks:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}},
		Terminals:   []int{0, 1, 2, 3, 4, 5, 0, 3},
		RouterPos:   [][2]float64{{0, 0}, {2, 0}, {4, 0}, {4, 2}, {2, 2}, {0, 2}},
		TerminalPos: [][2]float64{{0, 1}, {2, 1}, {4, 1}, {4, 3}, {2, 3}, {0, 3}, {1, 1}, {3, 3}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	out := []topology.Topology{synth}
	for _, name := range []string{
		"mesh-3x4", "mesh-4x5", "torus-3x4", "torus-4x4", "hypercube-4",
		"butterfly-2ary3fly", "butterfly-4ary2fly", "clos-m3n2r4", "clos-m4n4r4",
		"octagon", "star-6",
	} {
		topo, err := topology.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, topo)
	}
	return out
}

// FuzzSplitPathMatchesDijkstra is the differential gate for split
// routing's table path: for a random terminal pair and loads drawn to
// force exact ties (all zero, or a few repeated values), every chunk of a
// 32-chunk water-fill must get the very path DijkstraLoads returns over
// the pair's min-hop DAG — same vertices, same arcs, same ok bit —
// whenever the enumerated paths have a strict minimum.
func FuzzSplitPathMatchesDijkstra(f *testing.F) {
	topos := splitFuzzTopos(f)
	for i := range topos {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(uint8(i), uint16(3*i+1), uint16(7*i+5), mode, int64(i)+int64(mode)*101)
		}
	}
	f.Fuzz(func(t *testing.T, ti uint8, s, d uint16, mode uint8, seed int64) {
		checkSplitPath(t, topos[int(ti)%len(topos)], int(s), int(d), mode, seed)
	})
}

// TestSplitPathTableCoverage runs the fuzz body over a seeded sweep and
// requires both outcomes to occur — chunks served from the table and
// chunks handed to the search (ties and unenumerated pairs) — so the
// differential check cannot pass vacuously.
func TestSplitPathTableCoverage(t *testing.T) {
	topos := splitFuzzTopos(t)
	rng := rand.New(rand.NewSource(1))
	var fast, searched int
	for i := 0; i < 300; i++ {
		f, s := checkSplitPath(t, topos[i%len(topos)], rng.Intn(64), rng.Intn(64), uint8(i%3), int64(i))
		fast += f
		searched += s
	}
	if fast == 0 || searched == 0 {
		t.Fatalf("%d chunks from the table, %d searched; both must occur", fast, searched)
	}
}

// checkSplitPath water-fills 32 chunks of one commodity between terminals
// s and d (mod the terminal count) over loads drawn by mode — all zero,
// a few repeated values, or uniform — and fails the test when a chunk the
// table serves differs from DijkstraLoads's path. It returns how many
// chunks the table served and how many fell back to the search.
func checkSplitPath(t *testing.T, topo topology.Topology, s, d int, mode uint8, seed int64) (fast, searched int) {
	n := topo.NumTerminals()
	srcT, dstT := s%n, d%n
	if srcT == dstT {
		dstT = (dstT + 1) % n
	}
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
	value := []float64{64, 100, 333.3}[rng.Intn(3)]

	rt := NewRouter()
	rt.Bind(topo)
	pair := rt.Pair(srcT, dstT)
	src, dst := topo.InjectRouter(srcT), topo.EjectRouter(dstT)
	rt.loads, rt.bias = loads, hopBiasFor(value)
	bw := value / DefaultChunks
	for chunk := 0; chunk < DefaultChunks; chunk++ {
		verts, arcs, ok := rt.cheapestPath(pair, src)
		if ok {
			fast++
			verts, arcs = slices.Clone(verts), slices.Clone(arcs)
			wantV, wantA, wantOK := rt.shortestLoads(src, dst, pair.DAG, pair.Quad)
			if !wantOK || !slices.Equal(verts, wantV) || !slices.Equal(arcs, wantA) {
				t.Fatalf("%s %d->%d chunk %d: table path %v/%v, DijkstraLoads %v/%v (ok %v)",
					topo.Name(), srcT, dstT, chunk, verts, arcs, wantV, wantA, wantOK)
			}
		} else {
			searched++
			if pair.NumPaths() == 1 {
				t.Fatalf("%s %d->%d: single-path pair fell back to the search", topo.Name(), srcT, dstT)
			}
			if verts, arcs, ok = rt.shortestLoads(src, dst, pair.DAG, pair.Quad); !ok {
				t.Fatalf("%s %d->%d: no path", topo.Name(), srcT, dstT)
			}
		}
		for _, id := range arcs {
			loads[id] += bw
		}
	}
	return fast, searched
}
