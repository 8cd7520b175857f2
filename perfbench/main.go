// Command perfbench is the SUNMAP benchmark. It drives the public
// sunmap.Session API (and, for served-mix, the serve HTTP front end)
// with seeded generated inputs, checks every output, and prints one JSON
// result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run decomposes ops into timed calls of
// each layer's public function and reports the per-layer metrics. See
// README.md in this directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sunmap"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median.
const setupRepeats = 5

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// outDir receives the span file and temporary job journals.
	outDir string
	// root is the checkout whose sources the stamp digests.
	root  string
	sizes sizes
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{sizes: fullSizes}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and temporary journals")
	flag.StringVar(&cfg.root, "root", ".", "checkout root, for the source digest")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// env is what every part of a run shares.
type env struct {
	nproc  int
	outDir string
	stamp  stamp
}

// stamp identifies the machine, toolchain, code and inputs of a run, so
// figures from different boxes are never compared as if from one.
type stamp struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPU          string  `json:"cpu"`
	Go           string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
}

func newEnv(cfg config) (*env, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	src, err := sourceDigest(cfg.root)
	if err != nil {
		return nil, err
	}
	return &env{
		nproc:  runtime.NumCPU(),
		outDir: cfg.outDir,
		stamp: stamp{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPU: cpuModel(), Go: runtime.Version(), Commit: commit(), SourceDigest: src,
		},
	}, nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, "none" when the
// build saw no repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root
// (skipping dot directories), naming the code a run measured even in a
// checkout without history.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// run executes one benchmark invocation, printing diagnostics to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	printJSON(out, "env", e.stamp)
	var failures []string
	if err := checkPinned(ctx, e.nproc); err != nil {
		failures = append(failures, err.Error())
	}
	if cfg.trace {
		return runTraced(ctx, cfg, e, w, out, failures)
	}
	return runTimed(ctx, cfg, e, w, out, failures)
}

// runTimed is the untraced run: set-up, the timed closed loop, then the
// checks of every op, and the end-to-end metrics.
func runTimed(ctx context.Context, cfg config, e *env, w *workload, out io.Writer, failures []string) (res *result, err error) {
	var setups []float64
	var t target
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		tk, err := openTarget(ctx, w, e, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			if err := tk.close(); err != nil {
				return nil, err
			}
			continue
		}
		t = tk
	}
	defer func() { err = errors.Join(err, t.close()) }()

	recs, elapsed := closedLoop(ctx, t.op, w, clients(w, e), cfg.dur)

	outs, failed, failures := checkAll(ctx, w, t, recs, failures)
	var lats []time.Duration
	feasible := 0
	for i, r := range recs {
		lats = append(lats, r.latency)
		if _, feas, _ := primary(outs[i].reports); feas {
			feasible++
		}
	}
	lat := summarize(lats)
	n := float64(len(recs))
	printJSON(out, "latency", lat)
	printDigests(out, w, recs, outs)
	printFailures(out, failures)
	return &result{
		Correct:   len(failures) == 0,
		Attempted: len(recs),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":             {medianOf(setups), "s"},
			"ops_per_s":           {throughput(recs, clients(w, e), w.window(), elapsed), "1/s"},
			"latency_p50_ms":      {lat.P50MS, "ms"},
			"latency_tail_ms":     {lat.TailMS, "ms"},
			"ok_frac":             {1 - float64(failed)/n, "frac"},
			"design_cost_geomean": {cycleCost(w, outs), "cost"},
			"feasible_frac":       {float64(feasible) / n, "frac"},
			"peak_rss_mb":         {peakRSSMB(), "MB"},
		},
	}, nil
}

// closedLoop runs the workload's ops from clients concurrent callers,
// each issuing its next op when the previous one returns, until dur has
// passed, the fixed cycle has run, and the ops taken make whole rounds.
// Records come back in op order.
func closedLoop(ctx context.Context, op func(context.Context, int) opRecord, w *workload, clients int, dur time.Duration) ([]opRecord, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []opRecord
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if n := int(next.Load()); time.Now().After(deadline) && w.done(n) {
					return
				}
				rec := op(ctx, int(next.Add(1)-1))
				rec.done = time.Since(start)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(recs, func(i, j int) bool { return recs[i].index < recs[j].index })
	return recs, elapsed
}

// throughputWindow is the length of a multi-client throughput window.
const throughputWindow = time.Second

// throughput is completed ops per second, taken as the median over
// windows of the run so that a passing stall of the machine moves it
// little: windows of group consecutive ops for one client, one-second
// windows of completions for several. A run too short for one window
// reports its overall rate.
func throughput(recs []opRecord, clients, group int, elapsed time.Duration) float64 {
	var rates []float64
	if clients == 1 {
		for i := 0; i+group <= len(recs); i += group {
			first, last := recs[i], recs[i+group-1]
			rates = append(rates, float64(group)/(last.done-first.done+first.latency).Seconds())
		}
	} else {
		counts := make([]int, int(elapsed/throughputWindow))
		for _, r := range recs {
			if k := int(r.done / throughputWindow); k < len(counts) {
				counts[k]++
			}
		}
		for _, c := range counts {
			rates = append(rates, float64(c)/throughputWindow.Seconds())
		}
	}
	if len(rates) == 0 {
		return float64(len(recs)) / elapsed.Seconds()
	}
	return medianOf(rates)
}

// clients is the workload's closed-loop client count: nproc HTTP
// clients for served-mix, one caller otherwise.
func clients(w *workload, e *env) int {
	if w.served {
		return e.nproc
	}
	return 1
}

// maxNoted bounds how many failure messages a run prints.
const maxNoted = 8

// checkAll checks every op and returns the outcomes, the failed count and
// the notes.
func checkAll(ctx context.Context, w *workload, t target, recs []opRecord, notes []string) ([]outcome, int, []string) {
	c := newChecker(w, t)
	outs := make([]outcome, len(recs))
	failed := 0
	for i, r := range recs {
		outs[i] = c.check(ctx, r)
		if err := outs[i].err; err != nil {
			failed++
			if len(notes) < maxNoted {
				notes = append(notes, fmt.Sprintf("op %d: %v", r.index, err))
			}
		}
	}
	return outs, failed, notes
}

// cycleCost is the geometric mean of the design cost over the fixed
// input cycle.
func cycleCost(w *workload, outs []outcome) float64 {
	var costs []float64
	for _, o := range outs[:min(w.cycle, len(outs))] {
		if c, _, ok := primary(o.reports); ok {
			costs = append(costs, c)
		}
	}
	return geomean(costs)
}

// printDigests prints the digests of the fixed cycle's generated inputs
// and of its reports, which hold no timing.
func printDigests(out io.Writer, w *workload, recs []opRecord, outs []outcome) {
	n := min(w.cycle, len(recs))
	var inputs []any
	var reports [][]sunmap.Report
	for i := range n {
		inputs = append(inputs, w.input(recs[i].index))
		reports = append(reports, outs[i].reports)
	}
	printJSON(out, "digests", map[string]any{
		"cycle_ops": n, "inputs": digest(inputs), "results": digest(reports),
	})
}

func printFailures(out io.Writer, failures []string) {
	for _, f := range failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
}

func printJSON(out io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(strconv.Quote(err.Error()))
	}
	fmt.Fprintf(out, "%s %s\n", label, b)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, 0 where
// the kernel does not report it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
