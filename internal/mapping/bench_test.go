package mapping

import (
	"context"
	"math"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// benchCases are the ISSUE-4 tracked configurations: the two hot apps
// under the two objectives the swap loop most often runs with. Results
// land in BENCH_4.json via scripts/bench.sh.
var benchCases = []struct {
	name string
	app  func() *graph.CoreGraph
	opts Options
}{
	{"vopd/min-delay", apps.VOPD, Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}},
	{"vopd/weighted", apps.VOPD, Options{Routing: route.MinPath, Objective: Weighted,
		Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}},
	{"mpeg4/min-delay", apps.MPEG4, Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}},
	{"mpeg4/weighted", apps.MPEG4, Options{Routing: route.MinPath, Objective: Weighted,
		Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}},
}

// BenchmarkMap times one full Map call (greedy seed, incremental swap
// search, final LP floorplan) on a 3x4 mesh, and — under the swap-eval
// sub-benchmarks — the steady-state cost of evaluating one candidate swap,
// which must stay at 0 allocs/op. Run with:
//
//	go test -bench BenchmarkMap -benchmem ./internal/mapping
func BenchmarkMap(b *testing.B) {
	for _, tc := range benchCases {
		g := tc.app()
		topo := mustTopo(topology.NewMesh(3, 4))
		b.Run(tc.name+"/full", func(b *testing.B) {
			sc := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MapContextWith(context.Background(), g, topo, tc.opts, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/swap-eval", func(b *testing.B) {
			st, assign, occupant := benchSweepState(b, g, topo, tc.opts)
			pairA, pairB := benchSwapPair(occupant)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ca, cb := occupant[pairA], occupant[pairB]
				swapTerminals(assign, occupant, pairA, pairB)
				if _, _, err := st.eval(assign, ca, cb, false, math.Inf(1)); err != nil {
					b.Fatal(err)
				}
				swapTerminals(assign, occupant, pairA, pairB) // reject
			}
		})
	}
}

// benchSweepState builds an incremental evaluator positioned after the
// seed evaluation, the state every in-loop candidate evaluation runs from.
func benchSweepState(tb testing.TB, g *graph.CoreGraph, topo topology.Topology, opts Options) (*incState, []int, []int) {
	tb.Helper()
	opts = opts.withDefaults()
	sc := NewScratch()
	ev := &evaluator{g: g, topo: topo, comms: g.Commodities(), opts: opts}
	st := &sc.inc
	st.bind(ev, sc.rt)
	assign := greedyInitial(g, topo, sc)
	base, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
	if err != nil {
		tb.Fatal(err)
	}
	st.promote()
	ev.norm = base.raw
	occupant := make([]int, topo.NumTerminals())
	for t := range occupant {
		occupant[t] = -1
	}
	for c, t := range assign {
		occupant[t] = c
	}
	return st, assign, occupant
}

// benchSwapPair picks two occupied terminals to toggle.
func benchSwapPair(occupant []int) (int, int) {
	a := -1
	for t, c := range occupant {
		if c == -1 {
			continue
		}
		if a == -1 {
			a = t
			continue
		}
		return a, t
	}
	panic("fewer than two occupied terminals")
}

// TestSwapEvalAllocFree is the hard gate behind the swap-eval benchmark:
// once warmed, evaluating a candidate swap must not allocate at all, for
// every tracked configuration and for dimension-ordered routing.
func TestSwapEvalAllocFree(t *testing.T) {
	cases := benchCases
	cases = append(cases, struct {
		name string
		app  func() *graph.CoreGraph
		opts Options
	}{"vopd/do", apps.VOPD, Options{Routing: route.DimensionOrdered, Objective: MinDelay, CapacityMBps: 500}})
	for _, tc := range cases {
		g := tc.app()
		topo := mustTopo(topology.NewMesh(3, 4))
		st, assign, occupant := benchSweepState(t, g, topo, tc.opts)
		pairA, pairB := benchSwapPair(occupant)
		run := func() {
			ca, cb := occupant[pairA], occupant[pairB]
			swapTerminals(assign, occupant, pairA, pairB)
			if _, _, err := st.eval(assign, ca, cb, false, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
			swapTerminals(assign, occupant, pairA, pairB)
		}
		// Warm caches (quadrant masks, heap/path capacities) with a full
		// sweep's worth of pair positions, then measure.
		for a := 0; a < topo.NumTerminals(); a++ {
			for b := a + 1; b < topo.NumTerminals(); b++ {
				if occupant[a] == -1 && occupant[b] == -1 {
					continue
				}
				ca, cb := occupant[a], occupant[b]
				swapTerminals(assign, occupant, a, b)
				if _, _, err := st.eval(assign, ca, cb, false, math.Inf(1)); err != nil {
					t.Fatal(err)
				}
				swapTerminals(assign, occupant, a, b)
			}
		}
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%s: steady-state swap evaluation allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestFullEvalAllocBudget is the whole-candidate companion of
// TestSwapEvalAllocFree: with a warmed Scratch, one full Map call
// (greedy seed, incremental swap search, final exact evaluation and LP
// floorplan) must stay within 40 allocations per evaluation, for every
// tracked configuration. The fault-sweep steady state has its own gate
// in internal/fault (TestSweepSteadyAllocBudget).
func TestFullEvalAllocBudget(t *testing.T) {
	ctx := context.Background()
	for _, tc := range benchCases {
		g := tc.app()
		topo := mustTopo(topology.NewMesh(3, 4))
		sc := NewScratch()
		run := func() {
			if _, err := MapContextWith(ctx, g, topo, tc.opts, sc); err != nil {
				t.Fatal(err)
			}
		}
		// First call warms the scratch: routing buffers, swap heaps,
		// quadrant masks and the LP workspace all reach steady size.
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 40 {
			t.Errorf("%s: scratch-reused full evaluation allocates %.1f objects/op, want <= 40", tc.name, allocs)
		}
	}
}

// TestSplitRouteAllocFree gates the SM rung as the mapper drives it:
// once the router's min-hop DAG caches are warm, re-routing the whole
// commodity set with split-minimal must not allocate at all.
func TestSplitRouteAllocFree(t *testing.T) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	assign := greedyInitial(g, topo, NewScratch())
	comms := g.Commodities()
	opts := route.Options{Function: route.SplitMin, CapacityMBps: 500, LoadsOnly: true}
	rt := route.NewRouter()
	var res route.Result
	routeOnce := func() {
		if err := rt.RouteInto(&res, topo, assign, comms, opts); err != nil {
			t.Fatal(err)
		}
	}
	routeOnce() // warm: builds and caches the per-pair min-hop DAGs
	if allocs := testing.AllocsPerRun(200, routeOnce); allocs != 0 {
		t.Errorf("SM split routing allocates %.1f objects/op on a warm router, want 0", allocs)
	}
}

// BenchmarkRoute is covered in internal/route; this sibling measures the
// route stack as the mapper drives it — scratch router, loads only —
// against the allocating public entry point, on the mapped seed
// assignment.
func BenchmarkRouteViaMapper(b *testing.B) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	assign := greedyInitial(g, topo, NewScratch())
	comms := g.Commodities()
	opts := route.Options{Function: route.MinPath, CapacityMBps: 500, LoadsOnly: true}
	rt := route.NewRouter()
	var res route.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rt.RouteInto(&res, topo, assign, comms, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFillCommMatchesCoreGraph checks the dense core-pair tables greedy
// placement reads against the CoreGraph methods they replace, bit for
// bit, on seeded corpus apps (whose repeated flows between one pair make
// the fold order matter), and that a warm Scratch refills them without
// allocating.
func TestFillCommMatchesCoreGraph(t *testing.T) {
	sc := NewScratch()
	for seed := int64(1); seed <= 4; seed++ {
		g := apps.RandomApp(seed, 8+4*int(seed))
		n := g.NumCores()
		between, volume := sc.fillComm(g)
		for i := 0; i < n; i++ {
			if volume[i] != g.CommVolume(i) {
				t.Fatalf("%s: volume[%d] = %v, CommVolume %v", g.Name(), i, volume[i], g.CommVolume(i))
			}
			for j := 0; j < n; j++ {
				if between[i*n+j] != g.CommBetween(i, j) {
					t.Fatalf("%s: between[%d,%d] = %v, CommBetween %v", g.Name(), i, j, between[i*n+j], g.CommBetween(i, j))
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { sc.fillComm(g) }); allocs != 0 {
			t.Errorf("%s: warm fillComm allocates %.1f objects/op, want 0", g.Name(), allocs)
		}
	}
}
