package mapping

import (
	"math"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// TestHopBoundSkipIsExact replays seed evaluations commodity by
// commodity and checks that hopBound, which skips its link scan until a
// just-applied record overloads a link, returns bit for bit the bound a
// full overload scan after every commodity gives. The configurations
// overload links part-way through, so both the skip and the scan run.
func TestHopBoundSkipIsExact(t *testing.T) {
	topo := mustTopo(topology.NewMesh(3, 4))
	overloads, clean := 0, 0
	for _, tc := range []struct {
		name string
		fn   route.Function
		cap  float64
	}{
		{"MP/500", route.MinPath, 500},
		{"MP/1000", route.MinPath, 1000},
		{"SM/600", route.SplitMin, 600},
	} {
		opts := Options{Routing: tc.fn, Objective: MinDelay, CapacityMBps: tc.cap}
		st, assign, _ := benchSweepState(t, apps.MPEG4(), topo, opts)
		// A finite bound no candidate reaches fills hopSuffix without
		// pruning.
		if _, pruned, err := st.eval(assign, -1, -1, true, math.MaxFloat64); err != nil || pruned {
			t.Fatalf("%s: seed eval: pruned %v, err %v", tc.name, pruned, err)
		}
		st.promote()

		var res route.Result
		res.Reset(len(st.links), st.topo.NumRouters())
		st.overloaded = false
		for k, c := range st.comms {
			st.applyRec(&res, c, &st.base[k])
			got := st.hopBound(&res, k+1, &st.base[k])
			lb := (res.HopSumMBps + st.hopSuffix[k+1]) / st.totalMBps
			var overload float64
			for _, l := range res.LinkLoads {
				if l > tc.cap {
					overload += (l - tc.cap) / tc.cap
				}
			}
			want := lb
			if overload > 0 {
				want *= 1 + 10*overload
				overloads++
			} else {
				clean++
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: commodity %d: hopBound = %v, full scan gives %v", tc.name, k, got, want)
			}
		}
	}
	if overloads == 0 || clean == 0 {
		t.Fatalf("%d overloaded and %d clean commodity boundaries; both branches must run", overloads, clean)
	}
}
