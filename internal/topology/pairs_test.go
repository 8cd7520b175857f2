package topology

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"sunmap/internal/graph"
)

// structDigest hashes everything a consumer of a topology observes:
// family, sizes, links, attachment, degrees, placement, and every
// terminal pair's MinHops and quadrant.
func structDigest(t Topology) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%d|%d\n", t.Name(), t.Kind(), t.NumTerminals(), t.NumRouters())
	for _, l := range t.Links() {
		fmt.Fprintf(h, "l%d:%d>%d\n", l.ID, l.From, l.To)
	}
	for r := 0; r < t.NumRouters(); r++ {
		in, out := t.RouterDegree(r)
		x, y := t.Position(r)
		fmt.Fprintf(h, "r%d:%d,%d,%g,%g\n", r, in, out, x, y)
	}
	for s := 0; s < t.NumTerminals(); s++ {
		x, y := t.TerminalPosition(s)
		fmt.Fprintf(h, "t%d:%d,%d,%g,%g\n", s, t.InjectRouter(s), t.EjectRouter(s), x, y)
		for d := 0; d < t.NumTerminals(); d++ {
			fmt.Fprintf(h, "p%d,%d:%d,%v\n", s, d, t.MinHops(s, d), t.Quadrant(s, d))
		}
	}
	return h.Sum64()
}

var pairTestNames = []string{
	"mesh-3x4", "torus-3x4", "hypercube-4", "butterfly-2ary3fly",
	"butterfly-4ary2fly", "clos-m3n2r4", "octagon", "star-6",
}

// TestLibraryTopologiesInterned pins the intern table: a canonical name
// resolves to one shared instance through ByName and Library alike, and
// that instance is structurally identical to a fresh build.
func TestLibraryTopologiesInterned(t *testing.T) {
	for _, name := range pairTestNames {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: ByName returned two instances", name)
		}
		fresh, err := byLibraryName(name)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == a {
			t.Fatalf("%s: fresh build returned the interned instance", name)
		}
		if structDigest(a) != structDigest(fresh) {
			t.Errorf("%s: interned topology differs structurally from a fresh build", name)
		}
	}
	lib, err := Library(12, LibraryOptions{IncludeExtras: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range lib {
		if named, err := ByName(topo.Name()); err != nil || named != topo {
			t.Errorf("%s: Library and ByName disagree on the instance (err %v)", topo.Name(), err)
		}
	}
}

// TestInternCapHolds fills the intern table past its cap: it never holds
// more than internCap names, names interned before the cap keep their
// instance, and later names are built fresh on every lookup.
func TestInternCapHolds(t *testing.T) {
	interned.Lock()
	saved := interned.m
	interned.m = nil
	interned.Unlock()
	t.Cleanup(func() {
		interned.Lock()
		interned.m = saved
		interned.Unlock()
	})

	first, err := ByName("star-2")
	if err != nil {
		t.Fatal(err)
	}
	for n := 3; n < internCap+20; n++ {
		if _, err := ByName(fmt.Sprintf("star-%d", n)); err != nil {
			t.Fatal(err)
		}
	}
	interned.Lock()
	size := len(interned.m)
	interned.Unlock()
	if size != internCap {
		t.Fatalf("intern table holds %d names, want the cap %d", size, internCap)
	}
	if again, _ := ByName("star-2"); again != first {
		t.Error("a name interned below the cap lost its instance")
	}
	past := fmt.Sprintf("star-%d", internCap+10)
	a, _ := ByName(past)
	b, _ := ByName(past)
	if a == b {
		t.Errorf("%s: past the cap, lookups must build fresh instances", past)
	}
	if a.Name() != past || structDigest(a) != structDigest(b) {
		t.Errorf("%s: fresh builds past the cap differ", past)
	}
}

// countDAGPaths counts the u->d paths along dag's arcs.
func countDAGPaths(g *graph.Digraph, dag graph.Bits, u, d int, memo map[int]int) int {
	if u == d {
		return 1
	}
	if n, ok := memo[u]; ok {
		return n
	}
	n := 0
	for _, a := range g.Out(u) {
		if dag.Has(a.ID) {
			n += countDAGPaths(g, dag, a.To, d, memo)
		}
	}
	memo[u] = n
	return n
}

// TestPairTableMatchesTopology checks every terminal pair's entry, for
// every family and a synthesized topology with several terminals per
// router, against its definition — which also pins that terminal pairs
// sharing an entry share their quadrant: the quadrant bitset is the
// topology's Quadrant, QuadLinks the links with both ends inside it, DAG
// the min-hop arc set (from hop distances), and the enumerated paths
// exactly the DAG's
// inject->eject paths when there are at most MaxPairPaths of them, and
// QuadIsDAG set exactly when every quadrant link is a DAG link.
func TestPairTableMatchesTopology(t *testing.T) {
	enumerated, tooMany := 0, 0
	custom, err := NewCustom(CustomSpec{
		Name:        "synth-pairs-ring6",
		NumRouters:  6,
		BiLinks:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}},
		Terminals:   []int{0, 1, 2, 3, 4, 5, 0, 3},
		RouterPos:   [][2]float64{{0, 0}, {2, 0}, {4, 0}, {4, 2}, {2, 2}, {0, 2}},
		TerminalPos: [][2]float64{{0, 1}, {2, 1}, {4, 1}, {4, 3}, {2, 3}, {0, 3}, {1, 1}, {3, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(slices.Clone(pairTestNames), "mesh-4x5", custom.Name()) {
		topo := custom
		if name != custom.Name() {
			if topo, err = byLibraryName(name); err != nil {
				t.Fatal(err)
			}
		}
		g := topo.Graph()
		pt := Pairs(topo)
		for s := 0; s < topo.NumTerminals(); s++ {
			for d := 0; d < topo.NumTerminals(); d++ {
				if s == d {
					continue
				}
				p := pt.Pair(s, d)
				tag := fmt.Sprintf("%s %d->%d", name, s, d)
				qmask := topo.Quadrant(s, d)
				quad := graph.NewBits(topo.NumRouters())
				for r, ok := range qmask {
					if ok {
						quad.Set(r)
					}
				}
				if !slices.Equal(p.Quad, quad) {
					t.Fatalf("%s: quadrant bits differ", tag)
				}
				for _, l := range topo.Links() {
					if p.QuadLinks.Has(l.ID) != (quad.Has(l.From) && quad.Has(l.To)) {
						t.Fatalf("%s: link %d quadrant membership wrong", tag, l.ID)
					}
				}
				// The DAG by definition: link u->v inside the quadrant with
				// dist(src,u) + 1 + dist(v,dst) = dist(src,dst).
				src, dst := topo.InjectRouter(s), topo.EjectRouter(d)
				total := g.HopDistance(src, dst, qmask)
				dag := graph.NewBits(len(topo.Links()))
				for _, l := range topo.Links() {
					if !qmask[l.From] || !qmask[l.To] {
						continue
					}
					du, dv := g.HopDistance(src, l.From, qmask), g.HopDistance(l.To, dst, qmask)
					if du >= 0 && dv >= 0 && du+1+dv == total {
						dag.Set(l.ID)
					}
				}
				if !slices.Equal(p.DAG, dag) {
					t.Fatalf("%s: DAG bits differ from the min-hop definition", tag)
				}
				quadIsDAG := true
				for _, l := range topo.Links() {
					if qmask[l.From] && qmask[l.To] && !dag.Has(l.ID) {
						quadIsDAG = false
					}
				}
				if p.QuadIsDAG != quadIsDAG {
					t.Fatalf("%s: QuadIsDAG = %v, definition says %v", tag, p.QuadIsDAG, quadIsDAG)
				}
				want := countDAGPaths(g, dag, src, dst, map[int]int{})
				if want > MaxPairPaths {
					tooMany++
					if p.NumPaths() != 0 {
						t.Fatalf("%s: %d paths enumerated past the cap", tag, p.NumPaths())
					}
					continue
				}
				enumerated++
				if p.NumPaths() != want {
					t.Fatalf("%s: %d paths enumerated, DAG has %d", tag, p.NumPaths(), want)
				}
				seen := map[string]bool{}
				for k := 0; k < p.NumPaths(); k++ {
					path := p.Path(k)
					if len(path)+1 != topo.MinHops(s, d) {
						t.Fatalf("%s: path %v is not minimum-hop", tag, path)
					}
					at := src
					for _, id := range path {
						l := topo.Links()[id]
						if l.From != at || !dag.Has(int(id)) {
							t.Fatalf("%s: path %v leaves the DAG at link %d", tag, path, id)
						}
						at = l.To
					}
					if at != dst {
						t.Fatalf("%s: path %v ends at router %d, want %d", tag, path, at, dst)
					}
					seen[fmt.Sprint(path)] = true
				}
				if len(seen) != want {
					t.Fatalf("%s: enumerated paths repeat", tag)
				}
			}
		}
	}
	if enumerated == 0 || tooMany == 0 {
		t.Fatalf("%d enumerated and %d over-cap pairs; both cases must occur", enumerated, tooMany)
	}
}

// TestPairTableConcurrentFill fills one fresh table from several
// goroutines walking the pairs in different orders (run under -race):
// every goroutine must see the same entry per pair, and each entry is
// counted as filled once.
func TestPairTableConcurrentFill(t *testing.T) {
	topo, err := NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt := Pairs(topo)
	n := topo.NumTerminals()
	const workers = 4
	got := make([][]*Pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Pair, n*n)
			for k := 0; k < n*n; k++ {
				i := (k*(2*w+1) + w) % (n * n)
				got[w][i] = Pairs(topo).Pair(i/n, i%n)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i] != got[0][i] {
				t.Fatalf("pair %d: goroutines %d and 0 saw different entries", i, w)
			}
		}
	}
	if pt.Filled() != n*n {
		t.Fatalf("Filled() = %d, want %d", pt.Filled(), n*n)
	}
}

// TestPairQuadIsDAGPerFamily pins which families route MP from the
// enumerated paths: QuadIsDAG holds for every butterfly and Clos pair and
// for every pair whose inject and eject router coincide, and fails for
// every mesh, torus, hypercube and octagon pair with distinct routers,
// whose quadrants hold links that lead away from the destination.
func TestPairQuadIsDAGPerFamily(t *testing.T) {
	for _, name := range []string{
		"butterfly-2ary3fly", "butterfly-4ary2fly", "clos-m3n2r4", "clos-m4n4r4", "star-6",
		"mesh-3x4", "mesh-4x5", "torus-3x4", "torus-4x4", "hypercube-4", "octagon",
	} {
		topo, err := byLibraryName(name)
		if err != nil {
			t.Fatal(err)
		}
		always := topo.Kind() == Butterfly || topo.Kind() == Clos
		pt := Pairs(topo)
		for s := 0; s < topo.NumTerminals(); s++ {
			for d := 0; d < topo.NumTerminals(); d++ {
				if s == d {
					continue
				}
				want := always || topo.InjectRouter(s) == topo.EjectRouter(d)
				if got := pt.Pair(s, d).QuadIsDAG; got != want {
					t.Fatalf("%s %d->%d: QuadIsDAG = %v, want %v", name, s, d, got, want)
				}
			}
		}
	}
}
