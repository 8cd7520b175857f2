package search

import (
	"math"
	"math/rand"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
)

// memoCheck evaluates c with the memoized evaluator ev and with the
// memo-free evaluator fresh, failing the test unless both verdicts agree
// bit for bit. It reports the verdict, whether c passed the structure
// check, and whether the memo answered from a stored entry.
func memoCheck(t *testing.T, ev, fresh *evaluator, c *cand) (fit float64, ok, structOK, hit bool) {
	t.Helper()
	if structOK = ev.checkStructure(c); structOK {
		_, hit = ev.memo.probe(c)
	}
	fit, ok = ev.eval(c)
	ffit, fok := fresh.eval(c)
	if ok != fok || math.Float64bits(fit) != math.Float64bits(ffit) {
		t.Fatalf("memo verdict (%v, %x) != fresh verdict (%v, %x) (hit %v, routers %d, links %d)",
			ok, math.Float64bits(fit), fok, math.Float64bits(ffit), hit, c.nR, len(c.edges))
	}
	return fit, ok, structOK, hit
}

// TestSearchMemoMatchesFreshEval is the exactness gate of the verdict
// memo: whole annealing chains, walked with the same mutate and
// Metropolis steps as chain.step, compare every evaluation's memoized
// verdict with a memo-free evaluator's fresh one. The cases cover a
// capacitated paper app and a 20-core generated app both uncapped and
// congested (so the overload penalty is part of the fitness); node split
// and merge must fire, so attachments change under the memo. The
// uncapped 20-core case is the search-fault shape and must hit on at
// least a quarter of its routed evaluations, which a key that never
// matches would fail.
func TestSearchMemoMatchesFreshEval(t *testing.T) {
	mpeg4, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	rand20 := apps.RandomApp(1, 20)
	delay := func(capMBps float64) mapping.Options {
		return mapping.Options{Routing: route.MinPath, Objective: mapping.MinDelay, CapacityMBps: capMBps}
	}
	cases := []struct {
		name       string
		app        *graph.CoreGraph
		mopts      mapping.Options
		budget     int
		minHitFrac float64
	}{
		{"mpeg4-1000", mpeg4, mpeg4Opts(), 2500, 0},
		{"rand20-uncapped", rand20, delay(0), 5000, 0.25},
		{"rand20-congested", rand20, delay(400), 2500, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			terms := tc.app.NumCores()
			o, b, err := Options{Seed: 1, Mapping: tc.mopts}.withDefaults(terms)
			if err != nil {
				t.Fatal(err)
			}
			comms := tc.app.Commodities()
			inits := initialCandidates(tc.app, terms, b)
			var splits, merges, routed, hits, congested int
			for idx := 0; idx < 4; idx++ {
				ev := newEvaluator(comms, terms, b, o.Mapping)
				fresh := newEvaluator(comms, terms, b, o.Mapping)
				fresh.memo = nil
				rng := rand.New(rand.NewSource(chainSeed(o.Seed, idx)))
				cur, next := newCand(b.maxR, terms), newCand(b.maxR, terms)
				cur.copyFrom(inits[idx%len(inits)])
				curFit, ok, _, _ := memoCheck(t, ev, fresh, cur)
				if !ok {
					cur.copyFrom(pathInit(terms, b))
					if curFit, ok, _, _ = memoCheck(t, ev, fresh, cur); !ok {
						t.Fatal("path seed rejected")
					}
				}
				temp, cool := 0.25*curFit, math.Pow(1e-3, 1/float64(tc.budget))
				for i := 0; i < tc.budget; i++ {
					temp *= cool
					next.copyFrom(cur)
					if !next.mutate(rng, b) {
						continue
					}
					switch {
					case next.nR > cur.nR:
						splits++
					case next.nR < cur.nR:
						merges++
					}
					fit, ok, structOK, hit := memoCheck(t, ev, fresh, next)
					if structOK {
						routed++
						if hit {
							hits++
						}
					}
					if !ok {
						continue
					}
					if !hit && tc.mopts.CapacityMBps > 0 && fresh.res.MaxLinkLoad > tc.mopts.CapacityMBps {
						congested++
					}
					if d := fit - curFit; d > 0 && rng.Float64() >= math.Exp(-d/temp) {
						continue
					}
					cur, next = next, cur
					curFit = fit
				}
			}
			t.Logf("%d routed evaluations, %d memo hits (%.1f%%), %d splits, %d merges, %d congested",
				routed, hits, 100*float64(hits)/float64(routed), splits, merges, congested)
			if splits == 0 || merges == 0 {
				t.Errorf("node split fired %d times and merge %d times, want both", splits, merges)
			}
			if tc.mopts.CapacityMBps > 0 && congested == 0 {
				t.Errorf("no evaluated candidate exceeded %.0f MB/s: the overload penalty went untested", tc.mopts.CapacityMBps)
			}
			if frac := float64(hits) / float64(routed); frac < tc.minHitFrac {
				t.Errorf("memo hit on %.1f%% of routed evaluations, want >= %.0f%%", 100*frac, 100*tc.minHitFrac)
			}
		})
	}
}

// TestSearchMemoCollisionIsAMiss pins the full key comparison: in a
// one-slot table every structure lands in the same slot, so a lookup may
// only hit on the exact structure stored there. The structures differ by
// one link, and by the attachment alone.
func TestSearchMemoCollisionIsAMiss(t *testing.T) {
	app, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	terms := app.NumCores()
	o, b, err := Options{Mapping: mpeg4Opts()}.withDefaults(terms)
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(app.Commodities(), terms, b, o.Mapping)
	ev.memo = newVerdictMemo(b.maxR, terms, 1)
	fresh := newEvaluator(app.Commodities(), terms, b, o.Mapping)
	fresh.memo = nil

	path, ring := pathInit(terms, b), ringInit(terms, b)
	moved := pathInit(terms, b) // path's links; terminals 0 and last swap routers
	moved.att[0], moved.att[terms-1] = moved.att[terms-1], moved.att[0]
	for _, c := range []*cand{path, ring, moved} {
		if !ev.checkStructure(c) {
			t.Fatal("test structure fails the structure check")
		}
	}
	for i, c := range []*cand{path, ring, path, moved, path} {
		if _, hit := ev.memo.probe(c); hit {
			t.Fatalf("lookup %d hit on a slot holding a different structure", i)
		}
		memoCheck(t, ev, fresh, c)
		if _, hit := ev.memo.probe(c); !hit {
			t.Fatalf("lookup %d missed right after storing the same structure", i)
		}
		memoCheck(t, ev, fresh, c)
	}
}
