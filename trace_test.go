package sunmap_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sunmap"
)

// TestTracedReportsByteIdentical is the tracing acceptance criterion:
// attaching a Trace changes nothing observable — the marshaled reports
// of the mixed batch workload stay byte-identical between sequential and
// parallel execution with tracing enabled, exactly as they do without.
func TestTracedReportsByteIdentical(t *testing.T) {
	var blobs [][]byte
	var traces []*sunmap.Trace
	for _, par := range []int{1, 4} {
		tr := sunmap.NewTrace()
		sess, err := sunmap.NewSession(sunmap.WithParallelism(par), sunmap.WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		reports, err := sess.Batch(context.Background(), batchRequests())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		blob, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		traces = append(traces, tr)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Errorf("traced reports differ between parallelism 1 and 4:\nseq: %s\npar: %s", blobs[0], blobs[1])
	}

	// Both traces saw real activity. Span counts may legitimately differ
	// across parallelism (racing cache misses, limiter waits) — only the
	// reports are pinned byte-identical.
	for i, tr := range traces {
		snap := tr.Snapshot()
		if len(snap.Stages) == 0 {
			t.Fatalf("trace %d recorded no stages", i)
		}
		if snap.CacheMisses == 0 {
			t.Errorf("trace %d saw no evaluation-cache misses on a cold session", i)
		}
	}
}

// TestEscalationEvaluatesOneSweepPerRung is the wasted-work gate of
// routing escalation: a parallel escalated select must map exactly what
// the sequential ladder maps — one library sweep per rung reached, no
// evaluations of rungs the selection never needed. vopd stops at MP;
// mpeg4 escalates MP -> SM.
func TestEscalationEvaluatesOneSweepPerRung(t *testing.T) {
	ladder := []string{"MP", "SM", "SA"}
	for _, app := range []string{"vopd", "mpeg4"} {
		evals := make(map[int]uint64)
		for _, par := range []int{1, 2} {
			tr := sunmap.NewTrace()
			sess, err := sunmap.NewSession(sunmap.WithParallelism(par), sunmap.WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sess.Select(context.Background(), sunmap.SelectRequest{
				App:      sunmap.AppSpec{Name: app},
				Mapping:  sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 500},
				Escalate: true,
			})
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", app, par, err)
			}
			rungs := 0
			for i, fn := range ladder {
				if fn == rep.RoutingUsed {
					rungs = i + 1
				}
			}
			for _, st := range tr.Snapshot().Stages {
				if st.Stage == "evaluate" {
					evals[par] = st.Count
				}
			}
			if want := uint64(rungs * rep.Candidates); evals[par] != want {
				t.Errorf("%s parallelism %d: %d evaluate spans, want %d (%d rungs x %d candidates)",
					app, par, evals[par], want, rungs, rep.Candidates)
			}
		}
		if evals[1] != evals[2] {
			t.Errorf("%s: parallelism 2 recorded %d evaluate spans, sequential %d", app, evals[2], evals[1])
		}
	}
}

// TestTraceStagesAndRendering checks the trace sees the expected stages
// for a known workload and that WriteText renders every recorded row.
func TestTraceStagesAndRendering(t *testing.T) {
	tr := sunmap.NewTrace()
	sess, err := sunmap.NewSession(sunmap.WithParallelism(2), sunmap.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Select(context.Background(), sunmap.SelectRequest{
		App:     sunmap.AppSpec{Name: "vopd"},
		Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 500},
	}); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	got := make(map[string]uint64)
	for _, st := range snap.Stages {
		got[st.Stage] = st.Count
	}
	if got["select"] != 1 {
		t.Errorf("select span count = %d, want 1", got["select"])
	}
	if got["evaluate"] == 0 {
		t.Error("no evaluate spans recorded under select")
	}
	if snap.CacheMisses == 0 {
		t.Error("no cache misses recorded on a cold select")
	}

	var sb strings.Builder
	tr.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"stage", "select", "evaluate", "cache hits/misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestTracePerCallContext binds a trace to one call tree via
// Trace.Context on an untraced session — the per-request form.
func TestTracePerCallContext(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := sunmap.NewTrace()
	if _, err := sess.Map(tr.Context(context.Background()), sunmap.MapRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
		Mapping: sunmap.MapSpec{CapacityMBps: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	found := false
	for _, st := range snap.Stages {
		if st.Stage == "map" && st.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("context-bound trace missed the map span: %+v", snap.Stages)
	}

	// An untraced call on the same session records nothing new.
	before := len(tr.Snapshot().Stages)
	if _, err := sess.Map(context.Background(), sunmap.MapRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-3x3",
		Mapping: sunmap.MapSpec{CapacityMBps: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	if after := len(tr.Snapshot().Stages); after != before {
		t.Errorf("untraced call leaked into the trace: %d stages -> %d", before, after)
	}
}

// TestTraceNilSafe pins the disabled path: a nil *Trace is inert
// everywhere it can be passed.
func TestTraceNilSafe(t *testing.T) {
	var tr *sunmap.Trace
	if snap := tr.Snapshot(); len(snap.Stages) != 0 {
		t.Error("nil trace has stages")
	}
	ctx := context.Background()
	if tr.Context(ctx) != ctx {
		t.Error("nil trace rebound the context")
	}
	var sb strings.Builder
	tr.WriteText(&sb)
	if !strings.Contains(sb.String(), "stage") {
		t.Error("nil trace WriteText wrote no header")
	}
	sess, err := sunmap.NewSession(sunmap.WithTrace(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Map(ctx, sunmap.MapRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
		Mapping: sunmap.MapSpec{CapacityMBps: 1000},
	}); err != nil {
		t.Fatal(err)
	}
}
