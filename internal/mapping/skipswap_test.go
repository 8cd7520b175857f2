package mapping

import (
	"math"
	"slices"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// TestSkippedSwapsScoreCurrentCost is the exactness gate of the sweep's
// same-router skip. It replays the incremental sweep's first-improvement
// loop on topologies with several terminals per router, under MP, SM and
// SA, with fewer cores than terminals so swaps with a free terminal occur
// too; for every candidate swapIsNoop skips, a full re-route of the
// swapped assignment must score bit for bit the current cost, which the
// reference sweep then rejects.
func TestSkippedSwapsScoreCurrentCost(t *testing.T) {
	synthTopo, err := synth.Cluster(apps.RandomApp(3, 12), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{synthTopo}
	for _, name := range []string{"clos-m4n4r4", "butterfly-4ary2fly", "star-12"} {
		topos = append(topos, mustTopo(topology.ByName(name)))
	}
	withFree := 0
	for i, topo := range topos {
		g := apps.RandomApp(int64(10+i), topo.NumTerminals()-3)
		for _, fn := range []route.Function{route.MinPath, route.SplitMin, route.SplitAll} {
			opts := Options{Routing: fn, Objective: MinDelay, CapacityMBps: 500}
			tag := topo.Name() + "/" + fn.String()
			st, assign, occupant := benchSweepState(t, g, topo, opts)
			e, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			curCost := st.ev.objective(e)
			skipped := 0
			numT := topo.NumTerminals()
			for pass := 0; pass < 2; pass++ {
				for a := 0; a < numT; a++ {
					for b := a + 1; b < numT; b++ {
						if occupant[a] == -1 && occupant[b] == -1 {
							continue
						}
						ca, cb := occupant[a], occupant[b]
						swapTerminals(assign, occupant, a, b)
						if st.swapIsNoop(a, b) {
							skipped++
							if ca == -1 || cb == -1 {
								withFree++
							}
							e, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
							if err != nil {
								t.Fatal(err)
							}
							if c := st.ev.objective(e); math.Float64bits(c) != math.Float64bits(curCost) {
								t.Fatalf("%s: skipped swap %d<->%d scores %v, current cost %v", tag, a, b, c, curCost)
							}
							swapTerminals(assign, occupant, a, b)
							continue
						}
						e, _, err := st.eval(assign, ca, cb, false, math.Inf(1))
						if err != nil {
							t.Fatal(err)
						}
						if c := st.ev.objective(e); c < curCost-1e-12 {
							curCost = c
							st.promote()
						} else {
							swapTerminals(assign, occupant, a, b)
						}
					}
				}
			}
			if skipped == 0 {
				t.Errorf("%s: no candidate was skipped", tag)
			}
		}
	}
	if withFree == 0 {
		t.Error("no skipped candidate involved a free terminal")
	}
}

// TestDOSwapsWithinRouterAreNotSkipped shows why dimension-ordered
// routing keeps every candidate: on a Clos network two terminals of one
// ingress switch take different middle switches to the same destination,
// so swapping them can change the cost, and swapIsNoop never skips DO.
func TestDOSwapsWithinRouterAreNotSkipped(t *testing.T) {
	topo := mustTopo(topology.ByName("clos-m4n4r4"))
	rt := route.NewRouter()
	rt.Bind(topo)
	a, b, dst := 0, 1, topo.NumTerminals()-1
	if topo.InjectRouter(a) != topo.InjectRouter(b) || topo.EjectRouter(a) != topo.EjectRouter(b) {
		t.Fatalf("terminals %d and %d do not share a switch", a, b)
	}
	_, arcsA, err := rt.PathDO(a, dst, graph.Commodity{ValueMBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	arcsA = slices.Clone(arcsA)
	_, arcsB, err := rt.PathDO(b, dst, graph.Commodity{ValueMBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(arcsA, arcsB) {
		t.Fatalf("DO routes terminals %d and %d to %d identically: %v", a, b, dst, arcsA)
	}

	g := apps.RandomApp(7, topo.NumTerminals()-3)
	st, assign, occupant := benchSweepState(t, g, topo, Options{Routing: route.DimensionOrdered, Objective: MinDelay, CapacityMBps: 500})
	e, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	curCost := st.ev.objective(e)
	moved := 0
	for a := 0; a < topo.NumTerminals(); a++ {
		for b := a + 1; b < topo.NumTerminals(); b++ {
			if topo.InjectRouter(a) != topo.InjectRouter(b) || occupant[a] == -1 && occupant[b] == -1 {
				continue
			}
			if st.swapIsNoop(a, b) {
				t.Fatalf("DO skips swap %d<->%d", a, b)
			}
			swapTerminals(assign, occupant, a, b)
			e, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if st.ev.objective(e) != curCost {
				moved++
			}
			swapTerminals(assign, occupant, a, b)
		}
	}
	if moved == 0 {
		t.Error("no DO swap within one switch changed the cost")
	}
}
