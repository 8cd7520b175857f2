package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sunmap"
	"sunmap/serve"
)

// opRecord is what one timed op leaves for the checks.
type opRecord struct {
	index   int
	latency time.Duration
	// done is when the op completed, measured from the loop's start.
	done time.Duration
	// reports are a session op's reports.
	reports []sunmap.Report
	// err is a transport failure, a shed request or an error report.
	err error
	// reqKey and bodyKey name a served op's request and answer (the job
	// result for a job op) in its target.
	reqKey, bodyKey string
}

// target runs the ops of a timed loop.
type target interface {
	op(ctx context.Context, i int) opRecord
	session() *sunmap.Session
	close() error
}

// openTarget sets a workload up: a session with parallelism nproc (and
// for served-mix an HTTP server on loopback), warmed up before timing.
// tr, when set, traces every operation of the session.
func openTarget(ctx context.Context, w *workload, e *env, tr *sunmap.Trace) (target, error) {
	opts := []sunmap.SessionOption{sunmap.WithParallelism(e.nproc)}
	if tr != nil {
		opts = append(opts, sunmap.WithTrace(tr))
	}
	s, err := sunmap.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	if w.served {
		return openServed(ctx, w, e, s)
	}
	if _, err := w.do(ctx, s, w.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &sessionTarget{w: w, s: s}, nil
}

// sessionTarget runs ops directly on a session.
type sessionTarget struct {
	w *workload
	s *sunmap.Session
}

func (t *sessionTarget) op(ctx context.Context, i int) opRecord {
	start := time.Now()
	reps, err := t.w.do(ctx, t.s, i)
	return opRecord{index: i, latency: time.Since(start), reports: reps, err: err}
}

func (t *sessionTarget) session() *sunmap.Session { return t.s }
func (t *sessionTarget) close() error             { return nil }

// servedTarget drives an in-process serve server over loopback HTTP.
type servedTarget struct {
	w       *workload
	s       *sunmap.Session
	sv      *serve.Server
	hs      *http.Server
	done    chan error
	base    string
	client  *http.Client
	jobsDir string
	// shed counts 429 and 503 answers.
	shed atomic.Int64
	// requests counts HTTP requests sent.
	requests atomic.Int64

	mu     sync.Mutex
	reqs   map[string]sunmap.Request
	bodies map[string][]byte
}

// quietLog drops the diagnostics of the servers and job stores the
// benchmark opens; failures surface through the checks instead.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// pollInterval spaces the result polls of a submitted job.
const pollInterval = time.Millisecond

func openServed(ctx context.Context, w *workload, e *env, s *sunmap.Session) (target, error) {
	dir, err := os.MkdirTemp(e.outDir, "jobs-")
	if err != nil {
		return nil, err
	}
	sv, err := serve.NewServer(ctx, s, serve.Options{JobsDir: dir, Logger: quietLog})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	t := &servedTarget{
		w: w, s: s, sv: sv, jobsDir: dir,
		reqs: map[string]sunmap.Request{}, bodies: map[string][]byte{},
		hs:   &http.Server{Handler: sv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4 * e.nproc,
		}},
	}
	go func() { t.done <- t.hs.Serve(ln) }()
	// Pre-fill the hot set.
	for k := 1; k <= hotPoints; k++ {
		if rec := t.op(ctx, -k); rec.err != nil {
			t.close()
			return nil, fmt.Errorf("hot-set fill: %w", rec.err)
		}
	}
	return t, nil
}

func (t *servedTarget) session() *sunmap.Session { return t.s }

// op sends op i's request and keeps the request and the answer once per
// distinct content: the hot set repeats thousands of times per run, and
// the checks judge each distinct (request, answer) pair once.
func (t *servedTarget) op(ctx context.Context, i int) opRecord {
	req := t.w.input(i).(sunmap.Request)
	rec := opRecord{index: i}
	payload, err := json.Marshal(req)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	var body []byte
	if req.Op == sunmap.OpSearch {
		body, rec.err = t.job(ctx, payload)
	} else {
		body, rec.err = t.post(ctx, "/v1/do", payload, http.StatusOK)
	}
	rec.latency = time.Since(start)
	rec.reqKey, rec.bodyKey = contentKey(payload), contentKey(body)
	t.mu.Lock()
	if _, ok := t.reqs[rec.reqKey]; !ok {
		t.reqs[rec.reqKey] = req
	}
	if _, ok := t.bodies[rec.bodyKey]; !ok {
		t.bodies[rec.bodyKey] = body
	}
	t.mu.Unlock()
	return rec
}

// answer returns the request and body a served op's keys name.
func (t *servedTarget) answer(rec opRecord) (sunmap.Request, []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqs[rec.reqKey], t.bodies[rec.bodyKey]
}

func contentKey(b []byte) string {
	h := sha256.Sum256(b)
	return string(h[:])
}

// job submits payload and polls the job's result until it is terminal.
func (t *servedTarget) job(ctx context.Context, payload []byte) ([]byte, error) {
	body, err := t.post(ctx, "/v1/jobs", payload, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var jb struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &jb); err != nil {
		return nil, fmt.Errorf("job submission answer: %w", err)
	}
	for {
		status, body, err := t.do(ctx, http.MethodGet, "/v1/jobs/"+jb.ID+"/result", nil)
		if err != nil {
			return nil, err
		}
		switch status {
		case http.StatusOK:
			return body, nil
		case http.StatusConflict: // not finished yet
		default:
			return nil, fmt.Errorf("job %s result: HTTP %d: %s", jb.ID, status, bytes.TrimSpace(body))
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

func (t *servedTarget) post(ctx context.Context, path string, payload []byte, want int) ([]byte, error) {
	status, body, err := t.do(ctx, http.MethodPost, path, payload)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (t *servedTarget) do(ctx context.Context, method, path string, payload []byte) (int, []byte, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	hr, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	t.requests.Add(1)
	resp, err := t.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.shed.Add(1)
	}
	return resp.StatusCode, body, nil
}

// close stops the server, waits for it, and closes the job store.
func (t *servedTarget) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	t.client.CloseIdleConnections()
	err = errors.Join(err, t.sv.Close(), os.RemoveAll(t.jobsDir))
	return err
}
