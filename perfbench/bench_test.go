package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0},    // a lone sample is its own median
		{11, 5},   // too few for ten beyond: the median
		{21, 10},  // exactly the median has ten beyond
		{22, 11},  // ten beyond rank 11
		{100, 89}, // p90
		{1000, 989},
	}
	for _, c := range cases {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
		if k := tailRank(c.n); c.n >= 2*tailBeyond+1 && c.n-1-k != tailBeyond {
			t.Errorf("tailRank(%d) leaves %d samples beyond, want %d", c.n, c.n-1-k, tailBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	s := summarize(lat)
	if s.N != 100 || s.P50MS != 50.5 || s.TailMS != 90 || s.TailPct != 90 {
		t.Errorf("summarize = %+v, want n=100 p50=50.5 tail=90 at p90", s)
	}
}

func TestThroughputMedianWindow(t *testing.T) {
	// One client, rounds of two 100 ms ops; the third round stalled to
	// 1 s. The median round rate ignores the stall.
	var recs []opRecord
	var clock time.Duration
	for i, d := range []time.Duration{100, 100, 100, 100, 1000, 1000, 100, 100} {
		clock += d * time.Millisecond
		recs = append(recs, opRecord{index: i, latency: d * time.Millisecond, done: clock})
	}
	if got := throughput(recs, 1, 2, clock); got != 10 {
		t.Errorf("single-client throughput = %g, want 10", got)
	}
	// Two clients: 5, 7 and 9 completions in three whole seconds; the
	// partial fourth second is dropped.
	recs = recs[:0]
	for sec, n := range []int{5, 7, 9, 1} {
		for k := 0; k < n; k++ {
			recs = append(recs, opRecord{done: time.Duration(sec)*time.Second + time.Duration(k)*time.Millisecond})
		}
	}
	if got := throughput(recs, 2, 1, 3500*time.Millisecond); got != 7 {
		t.Errorf("multi-client throughput = %g, want 7", got)
	}
}

func TestSelfTimeUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once, not 60 units.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A disjoint child covers [70, 80).
		{ID: 4, Parent: 1, Name: "a", Start: 70, End: 80},
		// A grandchild is covered by its parent, not by the root.
		{ID: 5, Parent: 4, Name: "c", Start: 72, End: 75},
		// A child spilling past the root counts only inside it.
		{ID: 6, Parent: 1, Name: "d", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 100 - 40 - 10 - 5, "a": 30 + 10 - 3, "b": 30, "c": 3, "d": 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got, want := unattributedFrac(spans, "op"), 0.45; got != want {
		t.Errorf("unattributedFrac = %g, want %g", got, want)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := genApp(streamSeed(7, "corpus", 3), 32, "x")
	b := genApp(streamSeed(7, "corpus", 3), 32, "x")
	if digest(a) != digest(b) {
		t.Fatal("same seed generated different apps")
	}
	if c := genApp(streamSeed(8, "corpus", 3), 32, "x"); digest(c) == digest(a) {
		t.Error("different seeds generated the same app")
	}
	if _, err := coreGraph(a); err != nil {
		t.Errorf("generated app invalid: %v", err)
	}
	heavy := 0
	for _, f := range a.Flows {
		if f.MBps >= heavyMBps.lo {
			heavy++
		}
	}
	if heavy == 0 || heavy == len(a.Flows) {
		t.Errorf("%d of %d flows heavy, want a mix", heavy, len(a.Flows))
	}
	for _, name := range workloadNames {
		w1, _ := newWorkload(name, 5, fullSizes)
		w2, _ := newWorkload(name, 5, fullSizes)
		for i := -1; i < 20; i++ {
			if digest(w1.input(i)) != digest(w2.input(i)) {
				t.Errorf("%s op %d: inputs differ for one seed", name, i)
			}
		}
	}
}

func TestPaperAppsPerturbed(t *testing.T) {
	base, err := scaledPaperApp("mpeg4", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	scaled, _ := scaledPaperApp("mpeg4", 9, true)
	for i, f := range scaled.Flows {
		r := f.MBps / base.Flows[i].MBps
		if r < 0.8 || r > 1.2 {
			t.Errorf("flow %d scaled by %g, want [0.8, 1.2]", i, r)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// expects every check to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 3, dur: 300 * time.Millisecond, trace: trace,
				outDir: t.TempDir(), root: ".", sizes: tinySizes,
			}
			var out bytes.Buffer
			res, err := run(context.Background(), cfg, io.MultiWriter(&out))
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "ok_frac", "design_cost_geomean", "feasible_frac", "peak_rss_mb"}
			if trace {
				want = want[:0]
				for _, lm := range layerMetrics {
					want = append(want, lm.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result not JSON: %v", name, trace, err)
			}
		}
	}
}
