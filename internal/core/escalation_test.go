package core

// Tests for the parallelism plumbing around routing escalation: the
// in-order escalation ladder, fault-sweep fan-out inside one candidate,
// and the shared-limiter accounting — all of which must leave results
// byte-identical to the sequential path.

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/engine"
	"sunmap/internal/fault"
	"sunmap/internal/mapping"
	"sunmap/internal/pool"
	"sunmap/internal/route"
)

func mpeg4EscalationConfig(par int) Config {
	return Config{
		App: apps.MPEG4(),
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DefaultCapacityMBps,
		},
		EscalateRouting: true,
		Parallelism:     par,
	}
}

// sameSurvivability asserts the per-candidate fault reports of two
// selections are byte-identical — the fold order never depends on how
// many workers evaluated the scenarios.
func sameSurvivability(t *testing.T, got, want *Selection) {
	t.Helper()
	for i := range got.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if (g.Survivability == nil) != (w.Survivability == nil) {
			t.Fatalf("candidate %s: fault report presence differs", g.Name())
		}
		if g.Survivability != nil && !reflect.DeepEqual(g.Survivability, w.Survivability) {
			t.Errorf("candidate %s: fault report differs across parallelism:\ngot:  %+v\nwant: %+v",
				g.Name(), g.Survivability, w.Survivability)
		}
	}
}

// TestEscalatedSelectionIdenticalAcrossParallelism pins the escalation
// ladder: MPEG4 escalates MP -> SM, so a parallel run fans two library
// sweeps across the pool one after the other, and the selection must
// stay byte-identical to the sequential ladder at every parallelism
// setting.
func TestEscalatedSelectionIdenticalAcrossParallelism(t *testing.T) {
	seq, err := Select(mpeg4EscalationConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.RoutingUsed == route.MinPath {
		t.Fatal("MPEG4 did not escalate; the test needs a second rung")
	}
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := Select(mpeg4EscalationConfig(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameSelection(t, got, seq)
		if !reflect.DeepEqual(got.Summaries(), seq.Summaries()) {
			t.Errorf("parallelism %d: summary tables differ from sequential", par)
		}
	}
}

// TestFaultAwareEscalationIdenticalAcrossParallelism composes the
// escalation ladder with the per-candidate fault-sweep fan-out and pins
// byte-identical Selection and fault.Report results across
// Parallelism ∈ {1, 2, GOMAXPROCS}.
func TestFaultAwareEscalationIdenticalAcrossParallelism(t *testing.T) {
	cfg := func(par int) Config {
		c := mpeg4EscalationConfig(par)
		c.Fault = &fault.Model{K: 1, Elements: fault.Links}
		c.ReliabilityWeight = 1
		return c
	}
	seq, err := Select(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := Select(cfg(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameSelection(t, got, seq)
		sameSurvivability(t, got, seq)
		if !reflect.DeepEqual(got.Summaries(), seq.Summaries()) {
			t.Errorf("parallelism %d: summary tables differ from sequential", par)
		}
	}
}

// TestSelectCancellationMidEscalation cancels an escalated parallel
// selection from its progress stream at the first event of the SM rung
// — with the rest of that rung's sweep still in flight on the pool — and
// checks the cancellation surfaces as context.Canceled with every worker
// drained (the test would otherwise fail under -race or hang).
func TestSelectCancellationMidEscalation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mpeg4EscalationConfig(2)
	var reachedSM atomic.Bool
	cfg.Progress = func(ev engine.Event) {
		if ev.Routing == route.SplitMin.String() && !reachedSM.Swap(true) {
			cancel()
		}
	}
	if _, err := SelectContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reachedSM.Load() {
		t.Fatal("selection never reached the SM rung")
	}
}

// TestReliabilityRespectsLimiterCap is the regression gate for the old
// hardcoded single-worker fault sweep: a fault-aware selection whose
// parallelism exceeds its shared limiter cap must still complete (the
// sweep's extra workers only TryAcquire — a fully subscribed limiter can
// never deadlock nested fan-out) and must report exactly the sequential
// results.
func TestReliabilityRespectsLimiterCap(t *testing.T) {
	seq, err := SelectContext(context.Background(), faultSelectConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultSelectConfig(4)
	cfg.Limit = pool.NewLimiter(2)
	got, err := SelectContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, got, seq)
	sameSurvivability(t, got, seq)
}
