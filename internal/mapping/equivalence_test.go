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

// TestIncrementalMatchesReference is the regression gate for the
// incremental swap evaluator: over every library topology and three real
// applications, the optimized mapper must reproduce the retained naive
// reference evaluator *exactly* — same assignment, same number of accepted
// swaps, bitwise-equal cost and link loads. Any divergence means the
// splice/dirty-link reasoning in incremental.go is broken for some
// topology shape, so the comparisons use ==, not tolerances.
func TestIncrementalMatchesReference(t *testing.T) {
	cases := []struct {
		app  string
		g    *graph.CoreGraph
		opts []Options
	}{
		{"vopd", apps.VOPD(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: Weighted, Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500},
			{Routing: route.DimensionOrdered, Objective: MinPower, CapacityMBps: 500},
		}},
		{"dsp", apps.DSPFilter(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: MinArea},
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500},
		}},
		{"mpeg4", apps.MPEG4(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: MinPower, CapacityMBps: 500},
		}},
		// The escalation workload of Section 6.1: split routing, where the
		// incremental evaluator splices whole chunk decompositions.
		{"mpeg4-split", apps.MPEG4(), []Options{
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500, SwapPasses: 2},
			{Routing: route.SplitAll, Objective: MinDelay, CapacityMBps: 500, SwapPasses: 1},
		}},
	}
	ctx := context.Background()
	// One shared Scratch across every fast-side run: reuse across apps,
	// topologies and option sets must never leak state between calls.
	sc := NewScratch()
	for _, tc := range cases {
		lib, err := topology.Library(tc.g.NumCores(), topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatalf("%s: library: %v", tc.app, err)
		}
		for _, topo := range lib {
			for _, opts := range tc.opts {
				fast, err := MapContextWith(ctx, tc.g, topo, opts, sc)
				if err != nil {
					t.Fatalf("%s on %s (%v): incremental: %v", tc.app, topo.Name(), opts.Routing, err)
				}
				ref, err := mapContext(ctx, tc.g, topo, opts, nil, true)
				if err != nil {
					t.Fatalf("%s on %s (%v): reference: %v", tc.app, topo.Name(), opts.Routing, err)
				}
				compareResults(t, tc.app, topo.Name(), opts, fast, ref)
			}
		}
	}
}

func compareResults(t *testing.T, app, topo string, opts Options, fast, ref *Result) {
	t.Helper()
	tag := app + " on " + topo + " (" + opts.Routing.String() + "/" + opts.Objective.String() + ")"
	if len(fast.Assign) != len(ref.Assign) {
		t.Fatalf("%s: assign lengths differ", tag)
	}
	for i := range fast.Assign {
		if fast.Assign[i] != ref.Assign[i] {
			t.Fatalf("%s: assignment differs: %v vs %v", tag, fast.Assign, ref.Assign)
		}
	}
	if fast.SwapsApplied != ref.SwapsApplied {
		t.Errorf("%s: swaps applied %d vs %d", tag, fast.SwapsApplied, ref.SwapsApplied)
	}
	if fast.Cost != ref.Cost {
		t.Errorf("%s: cost %v vs %v", tag, fast.Cost, ref.Cost)
	}
	if fast.AvgHops != ref.AvgHops {
		t.Errorf("%s: avg hops %v vs %v", tag, fast.AvgHops, ref.AvgHops)
	}
	if fast.PowerMW != ref.PowerMW {
		t.Errorf("%s: power %v vs %v", tag, fast.PowerMW, ref.PowerMW)
	}
	if fast.DesignAreaMM2 != ref.DesignAreaMM2 {
		t.Errorf("%s: design area %v vs %v", tag, fast.DesignAreaMM2, ref.DesignAreaMM2)
	}
	if len(fast.Route.LinkLoads) != len(ref.Route.LinkLoads) {
		t.Fatalf("%s: link-load lengths differ", tag)
	}
	for i := range fast.Route.LinkLoads {
		if fast.Route.LinkLoads[i] != ref.Route.LinkLoads[i] {
			t.Fatalf("%s: link %d load %v vs %v", tag, i, fast.Route.LinkLoads[i], ref.Route.LinkLoads[i])
		}
	}
	if fast.BandwidthOK != ref.BandwidthOK || fast.AreaOK != ref.AreaOK || fast.AspectOK != ref.AspectOK {
		t.Errorf("%s: feasibility verdicts differ", tag)
	}
}

// TestIncrementalMatchesReferenceSynthetic widens the shape coverage with
// random applications at partial occupancy (free terminals make
// occupied-free swaps common, the case where a commodity's endpoints move
// without a partner core).
func TestIncrementalMatchesReferenceSynthetic(t *testing.T) {
	ctx := context.Background()
	sc := NewScratch()
	for seed := int64(1); seed <= 4; seed++ {
		g := apps.Synthetic(7+int(seed), 0.3, 600, seed)
		for _, mk := range []struct {
			name string
			topo topology.Topology
		}{
			{"mesh", mustTopo(topology.NewMesh(3, 4))},
			{"hypercube", mustTopo(topology.NewHypercube(4))},
			{"clos", mustTopo(topology.NewClos(4, 4, 4))},
			{"star", mustTopo(topology.NewStar(13))},
		} {
			for _, fn := range []route.Function{route.MinPath, route.SplitMin} {
				opts := Options{Routing: fn, Objective: MinDelay, CapacityMBps: 400}
				fast, err := MapContextWith(ctx, g, mk.topo, opts, sc)
				if err != nil {
					t.Fatalf("seed %d on %s (%v): incremental: %v", seed, mk.name, fn, err)
				}
				ref, err := mapContext(ctx, g, mk.topo, opts, nil, true)
				if err != nil {
					t.Fatalf("seed %d on %s (%v): reference: %v", seed, mk.name, fn, err)
				}
				compareResults(t, g.Name(), mk.topo.Name(), opts, fast, ref)
			}
		}
	}
}

// TestIncrementalMatchesReferenceCorpus carries the equivalence gate to
// seeded corpus apps (apps.RandomApp) at 16 and 32 cores on the mesh,
// torus, butterfly and Clos families, under MP and SM. The capacity is
// low enough that links overload during every sweep, so the hop bound's
// overload walk and the dirty-link splicing both run on bigger
// topologies than the paper apps reach.
func TestIncrementalMatchesReferenceCorpus(t *testing.T) {
	ctx := context.Background()
	sc := NewScratch()
	infeasible := 0
	for _, tc := range []struct {
		cores int
		seed  int64
		topo  string
	}{
		{16, 1, "mesh-4x4"},
		{16, 2, "torus-4x4"},
		{16, 3, "butterfly-2ary4fly"},
		{16, 4, "clos-m4n4r4"},
		{32, 5, "mesh-4x8"},
		{32, 6, "torus-4x8"},
		{32, 7, "butterfly-2ary5fly"},
		{32, 8, "clos-m4n4r8"},
	} {
		g := apps.RandomApp(tc.seed, tc.cores)
		topo, err := topology.ByName(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range []route.Function{route.MinPath, route.SplitMin} {
			opts := Options{Routing: fn, Objective: MinDelay, CapacityMBps: 600, SwapPasses: 2}
			fast, err := MapContextWith(ctx, g, topo, opts, sc)
			if err != nil {
				t.Fatalf("%s on %s (%v): incremental: %v", g.Name(), tc.topo, fn, err)
			}
			ref, err := mapContext(ctx, g, topo, opts, nil, true)
			if err != nil {
				t.Fatalf("%s on %s (%v): reference: %v", g.Name(), tc.topo, fn, err)
			}
			compareResults(t, g.Name(), tc.topo, opts, fast, ref)
			if !ref.BandwidthOK {
				infeasible++
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("no corpus case overloaded a link; lower the capacity so the overload walk runs")
	}
}

// TestSwapEvalMatchesFreshRoute checks the delta evaluator candidate by
// candidate rather than by final outcome: through a whole first-improvement
// pass, every candidate's spliced link loads must equal a from-scratch
// routing of the same assignment bit for bit. Congested corpus apps make
// quadrant detours common, so a dirty-link test that misses part of a
// commodity's search region shows up here even when the sweep's
// decisions happen to survive it.
func TestSwapEvalMatchesFreshRoute(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.CoreGraph
		topo string
		fn   route.Function
	}{
		{apps.RandomApp(3, 16), "mesh-4x4", route.MinPath},
		{apps.RandomApp(4, 16), "torus-4x4", route.MinPath},
		{apps.RandomApp(5, 12), "mesh-3x5", route.MinPath},
		{apps.RandomApp(3, 16), "mesh-4x4", route.SplitMin},
		{apps.MPEG4(), "mesh-3x4", route.MinPath},
	} {
		topo, err := topology.ByName(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Routing: tc.fn, Objective: MinDelay, CapacityMBps: 300}
		st, assign, occupant := benchSweepState(t, tc.g, topo, opts)
		ropts := st.ev.opts.RouteOptions()
		ropts.LoadsOnly = true
		rt := route.NewRouter()
		var fresh route.Result
		cur := math.Inf(1)
		for a := 0; a < topo.NumTerminals(); a++ {
			for b := a + 1; b < topo.NumTerminals(); b++ {
				if occupant[a] == -1 && occupant[b] == -1 {
					continue
				}
				ca, cb := occupant[a], occupant[b]
				swapTerminals(assign, occupant, a, b)
				cand, _, err := st.eval(assign, ca, cb, false, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.RouteInto(&fresh, topo, assign, st.comms, ropts); err != nil {
					t.Fatal(err)
				}
				for id, l := range fresh.LinkLoads {
					if math.Float64bits(st.res.LinkLoads[id]) != math.Float64bits(l) {
						t.Fatalf("%s on %s (%v), swap %d<->%d: link %d load %v, fresh route %v",
							tc.g.Name(), tc.topo, tc.fn, a, b, id, st.res.LinkLoads[id], l)
					}
				}
				if c := st.ev.objective(cand); c < cur {
					cur = c
					st.promote()
				} else {
					swapTerminals(assign, occupant, a, b)
				}
			}
		}
	}
}
