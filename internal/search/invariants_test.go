package search

import (
	"context"
	"fmt"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// maker produces one topology for an app — a search-mutation output or an
// internal/synth generator — together with the strictness CheckInvariants
// holds it to (search winners must have an acyclic routed CDG outright;
// generator outputs may fall back to the up*/down* escape discipline).
type maker struct {
	name   string
	strict bool
	build  func(app *graph.CoreGraph, seed int64) (topology.Topology, error)
}

const propMaxRadix = 4

// searchWinner runs one short annealing chain over the app and
// materializes its fitness-best candidate — the exact artifact the full
// search would hand to the mapper, without the (slow) full evaluation the
// invariants don't depend on.
func searchWinner(app *graph.CoreGraph, seed int64) (topology.Topology, error) {
	terms := app.NumCores()
	o, b, err := Options{Seed: seed, MaxRadix: propMaxRadix}.withDefaults(terms)
	if err != nil {
		return nil, err
	}
	inits := initialCandidates(app, terms, b)
	cr := runChain(context.Background(), app.Commodities(), terms, o, b, 0, 400, inits[int(seed)%len(inits)])
	if cr.err != nil {
		return nil, cr.err
	}
	return materialize(app, seed, cr.best)
}

func propMakers() []maker {
	return []maker{
		{"search-chain", true, searchWinner},
		{"synth-cluster", false, func(app *graph.CoreGraph, _ int64) (topology.Topology, error) {
			return synth.Cluster(app, 4, propMaxRadix)
		}},
		{"synth-trimmed-mesh", false, func(app *graph.CoreGraph, _ int64) (topology.Topology, error) {
			return synth.TrimmedMesh(app)
		}},
		{"synth-sparse-hamming", false, func(app *graph.CoreGraph, _ int64) (topology.Topology, error) {
			return synth.SparseHamming(app, propMaxRadix)
		}},
	}
}

// TestPropertyInvariants is the property-test harness of the acceptance
// criteria: over >= 1000 generated app-graph/topology pairs (16- and
// 64-core seeded random task graphs × search-mutation outputs and every
// internal/synth generator), every emitted topology must satisfy the
// radix, used-channel-connectivity and deadlock-freedom invariants. A
// failure shrinks the offending app by greedy flow removal and reports
// the minimal counterexample: the seed, the surviving flows and the
// topology's edge set.
func TestPropertyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-pair property sweep")
	}
	makers := propMakers()
	pairs := 0
	check := func(n int, seeds int) {
		for s := 0; s < seeds; s++ {
			seed := int64(s)
			app := apps.RandomApp(seed, n)
			for _, m := range makers {
				topo, err := m.build(app, seed)
				if err != nil {
					// Generators may legitimately decline an app (e.g. a core
					// count without a mesh shape); that is not an invariant
					// violation, just not a pair.
					continue
				}
				pairs++
				if err := CheckInvariants(topo, app, propMaxRadix, m.strict); err != nil {
					shrinkAndReport(t, m, app, seed, err)
				}
			}
		}
	}
	check(16, 200)
	check(64, 70)
	if pairs < 1000 {
		t.Errorf("property sweep covered only %d app/topology pairs, want >= 1000", pairs)
	}
	t.Logf("checked %d app/topology pairs", pairs)
}

// shrinkAndReport minimizes a failing app by greedy flow removal — drop
// any single flow whose removal keeps the maker failing, repeat until no
// removal helps — then fails the test with the seed, the minimal flow
// list and the offending topology's edge set.
func shrinkAndReport(t *testing.T, m maker, app *graph.CoreGraph, seed int64, firstErr error) {
	t.Helper()
	fails := func(g *graph.CoreGraph) error {
		topo, err := m.build(g, seed)
		if err != nil {
			return nil // maker declined: shrank too far
		}
		return CheckInvariants(topo, g, propMaxRadix, m.strict)
	}
	cur, curErr := app, firstErr
	for {
		shrunk := false
		for i := 0; i < cur.NumEdges(); i++ {
			cand := withoutFlow(cur, i)
			if cand == nil {
				continue
			}
			if err := fails(cand); err != nil {
				cur, curErr, shrunk = cand, err, true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	var edges string
	if topo, err := m.build(cur, seed); err == nil {
		edges = fmt.Sprintf("%v", topo.Links())
	}
	t.Fatalf("%s violates invariants for seed %d (%d cores): %v\nminimal flows: %v\ntopology edges: %s",
		m.name, seed, cur.NumCores(), curErr, cur.Edges(), edges)
}

// withoutFlow rebuilds the app minus its i-th flow (nil when the result
// would have no flows left — the search refuses flowless apps anyway).
func withoutFlow(g *graph.CoreGraph, i int) *graph.CoreGraph {
	edges := g.Edges()
	if len(edges) <= 1 {
		return nil
	}
	out := graph.NewCoreGraph(g.Name())
	for _, c := range g.Cores() {
		out.MustAddCore(c)
	}
	for j, e := range edges {
		if j == i {
			continue
		}
		out.MustConnect(g.Core(e.From).Name, g.Core(e.To).Name, e.BandwidthMBps)
	}
	return out
}

// TestRandomAppDeterministic pins the generator the harness is seeded by:
// the same (seed, n) must produce the identical graph.
func TestRandomAppDeterministic(t *testing.T) {
	a, b := apps.RandomApp(11, 16), apps.RandomApp(11, 16)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
