package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"sunmap"
	"sunmap/internal/graph"
	"sunmap/internal/route"
)

// coreGraph builds the core graph an inline AppSpec describes, the way
// the session resolves it.
func coreGraph(a sunmap.AppSpec) (*graph.CoreGraph, error) {
	label := a.Label
	if label == "" {
		label = "app"
	}
	g := graph.NewCoreGraph(label)
	for _, c := range a.Cores {
		if _, err := g.AddCore(graph.Core{
			Name: c.Name, AreaMM2: c.AreaMM2, Soft: c.Soft, MinAspect: c.MinAspect, MaxAspect: c.MaxAspect,
		}); err != nil {
			return nil, err
		}
	}
	for _, f := range a.Flows {
		if err := g.Connect(f.From, f.To, f.MBps); err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}

// outcome is a checked op: its reports and the first failure, if any.
type outcome struct {
	reports []sunmap.Report
	err     error
}

// checker checks the ops of one target after the timed window.
type checker struct {
	w *workload
	t target
	// served memoizes the outcome of each distinct served (request,
	// answer) pair.
	served map[string]outcome
}

func newChecker(w *workload, t target) *checker {
	return &checker{w: w, t: t, served: map[string]outcome{}}
}

// check judges one op.
func (c *checker) check(ctx context.Context, rec opRecord) outcome {
	if rec.err != nil {
		return outcome{err: rec.err}
	}
	if st, ok := c.t.(*servedTarget); ok {
		key := rec.reqKey + rec.bodyKey
		o, seen := c.served[key]
		if !seen {
			req, body := st.answer(rec)
			o = c.checkServed(ctx, rec.index, req, body)
			c.served[key] = o
		}
		return o
	}
	return outcome{reports: rec.reports, err: c.checkReports(rec.index, rec.reports)}
}

func (c *checker) checkReports(i int, reps []sunmap.Report) error {
	if len(reps) == 0 {
		return errors.New("no report")
	}
	app := c.w.app(i)
	for _, rep := range reps {
		if err := checkReport(rep, app, c.w.capacity); err != nil {
			return fmt.Errorf("%s: %w", rep.Op, err)
		}
	}
	return nil
}

// checkServed checks a served answer's report and compares its bytes
// with a direct Session.Do of the same request, encoded the way the
// server encodes it.
func (c *checker) checkServed(ctx context.Context, i int, req sunmap.Request, body []byte) outcome {
	rep, err := sunmap.ParseReport(body)
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{reports: []sunmap.Report{*rep}}
	if o.err = c.checkReports(i, o.reports); o.err != nil {
		return o
	}
	direct := c.t.session().Do(ctx, req)
	var want []byte
	if req.Op == sunmap.OpSearch {
		want, err = json.Marshal(direct) // job results are stored marshaled
	} else {
		want, err = servedBytes(direct)
	}
	switch {
	case err != nil:
		o.err = err
	case !bytes.Equal(body, want):
		o.err = fmt.Errorf("served %s body differs from a direct Session.Do", req.Op)
	}
	return o
}

// servedBytes encodes a report the way the serve handler writes it.
func servedBytes(rep sunmap.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(rep)
	return buf.Bytes(), err
}

// checkReport checks the invariants of one report. app and capMBps are
// the op's application and link capacity, so a selection's loads can be
// recomputed independently.
func checkReport(rep sunmap.Report, app sunmap.AppSpec, capMBps float64) error {
	if err := rep.Err(); err != nil {
		return err
	}
	switch {
	case rep.Select != nil:
		r := rep.Select
		if r.Best == nil || r.Topology != r.Best.Topology {
			return fmt.Errorf("no winner named consistently (%q)", r.Topology)
		}
		topo, err := sunmap.TopologyByName(r.Topology)
		if err != nil {
			return err
		}
		if err := checkAssign(r.Best.Assign, topo.NumTerminals(), topo.InjectRouter); err != nil {
			return err
		}
		return checkLoads(r, topo, app, capMBps)
	case rep.Search != nil:
		r := rep.Search
		if r.Evaluations != r.Budget {
			return fmt.Errorf("search made %d evaluations for a budget of %d", r.Evaluations, r.Budget)
		}
		if r.Survivability != nil && (*r.Survivability < 0 || *r.Survivability > 1) {
			return fmt.Errorf("survivability %g outside [0, 1]", *r.Survivability)
		}
		if r.Best == nil || r.Best.Topology != r.Topology {
			return fmt.Errorf("no winner named consistently (%q)", r.Topology)
		}
		seen := map[int]bool{}
		for _, a := range r.Best.Assign {
			if a.Router < 0 || a.Router >= r.Routers {
				return fmt.Errorf("core %s on router %d of %d", a.Core, a.Router, r.Routers)
			}
			if seen[a.Terminal] {
				return fmt.Errorf("terminal %d holds two cores", a.Terminal)
			}
			seen[a.Terminal] = true
		}
	case rep.FaultSweep != nil:
		r := rep.FaultSweep
		if r.Scenarios <= 0 || r.Survivability < 0 || r.Survivability > 1 {
			return fmt.Errorf("%d scenarios, survivability %g", r.Scenarios, r.Survivability)
		}
	case rep.Simulate != nil:
		if len(rep.Simulate.Rows) == 0 {
			return errors.New("no simulation rows")
		}
		for _, row := range rep.Simulate.Rows {
			if row.MeasuredPackets <= 0 {
				return fmt.Errorf("rate %g measured no packets", row.Rate)
			}
		}
	case rep.Generate != nil:
		if len(rep.Generate.Files) == 0 {
			return errors.New("no generated files")
		}
		for _, f := range rep.Generate.Files {
			if f.Content == "" {
				return fmt.Errorf("generated file %s is empty", f.Name)
			}
		}
	default:
		return errors.New("empty report")
	}
	return nil
}

// checkAssign: every core sits on a distinct terminal of the topology,
// attached to the router the topology says.
func checkAssign(rows []sunmap.AssignRow, terminals int, inject func(int) int) error {
	seen := map[int]bool{}
	for _, a := range rows {
		if a.Terminal < 0 || a.Terminal >= terminals {
			return fmt.Errorf("core %s on terminal %d of %d", a.Core, a.Terminal, terminals)
		}
		if seen[a.Terminal] {
			return fmt.Errorf("terminal %d holds two cores", a.Terminal)
		}
		seen[a.Terminal] = true
		if r := inject(a.Terminal); r != a.Router {
			return fmt.Errorf("core %s reported on router %d, terminal %d attaches to %d", a.Core, a.Router, a.Terminal, r)
		}
	}
	return nil
}

// checkLoads re-runs route.Route on the reported assignment and compares
// the max link load and the bandwidth verdict with the report.
func checkLoads(r *sunmap.SelectReport, topo sunmap.Topology, app sunmap.AppSpec, capMBps float64) error {
	g, err := coreGraph(app)
	if err != nil {
		return err
	}
	if len(r.Best.Assign) != g.NumCores() {
		return fmt.Errorf("%d cores assigned, app has %d", len(r.Best.Assign), g.NumCores())
	}
	assign := make([]int, g.NumCores())
	for i, a := range r.Best.Assign {
		if c, ok := g.CoreIndex(a.Core); !ok || c != i {
			return fmt.Errorf("assignment row %d names core %s", i, a.Core)
		}
		assign[i] = a.Terminal
	}
	fn, err := route.ParseFunction(r.RoutingUsed)
	if err != nil {
		return err
	}
	res, err := route.Route(topo, assign, g.Commodities(), route.Options{Function: fn, CapacityMBps: capMBps})
	if err != nil {
		return fmt.Errorf("re-routing the winner: %w", err)
	}
	if d := math.Abs(res.MaxLinkLoad - r.Best.MaxLinkLoadMBps); d > 1e-9*math.Max(1, res.MaxLinkLoad) {
		return fmt.Errorf("re-routed max link load %g, reported %g", res.MaxLinkLoad, r.Best.MaxLinkLoadMBps)
	}
	if res.Feasible != r.Best.BandwidthOK {
		return fmt.Errorf("re-routed bandwidth verdict %v, reported %v", res.Feasible, r.Best.BandwidthOK)
	}
	return nil
}

// checkPinned re-runs the paper outcomes the repository's tests pin, on
// the unperturbed apps and under the options those tests use: min-delay
// selection for VOPD picks a butterfly, and MPEG4 escalates past MP with
// no feasible butterfly.
func checkPinned(ctx context.Context, nproc int) error {
	s, err := sunmap.NewSession(sunmap.WithParallelism(nproc))
	if err != nil {
		return err
	}
	mp := sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: paperCapacityMBps}
	vopd, err := scaledPaperApp("vopd", 0, false)
	if err != nil {
		return err
	}
	rep, err := s.Select(ctx, sunmap.SelectRequest{App: vopd, Mapping: mp})
	if err != nil {
		return fmt.Errorf("pinned vopd: %w", err)
	}
	if kind := winnerKind(rep); kind != "butterfly" || rep.Best.AvgHops != 2 {
		return fmt.Errorf("pinned vopd: winner %s (%s, %g hops), want a 2-hop butterfly", rep.Topology, kind, rep.Best.AvgHops)
	}
	mpeg4, err := scaledPaperApp("mpeg4", 0, false)
	if err != nil {
		return err
	}
	rep, err = s.Select(ctx, sunmap.SelectRequest{App: mpeg4, Mapping: mp, Escalate: true})
	if err != nil {
		return fmt.Errorf("pinned mpeg4: %w", err)
	}
	if rep.RoutingUsed == "MP" || rep.RoutingUsed == "DO" {
		return fmt.Errorf("pinned mpeg4: routing used %s, want escalation past MP", rep.RoutingUsed)
	}
	for _, row := range rep.Rows {
		if row.Kind == "butterfly" && row.Feasible {
			return fmt.Errorf("pinned mpeg4: butterfly %s feasible", row.Topology)
		}
	}
	return nil
}

func winnerKind(rep *sunmap.SelectReport) string {
	for _, row := range rep.Rows {
		if row.Topology == rep.Topology {
			return row.Kind
		}
	}
	return ""
}
