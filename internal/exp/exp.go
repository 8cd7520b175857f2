// Package exp reproduces every table and figure of the paper's evaluation
// (Section 6). Each Fig* function regenerates one artifact and returns a
// structured result with a text rendering; cmd/sunexp prints them and the
// root-level benchmarks time them. Paper-reported values are embedded so
// the renderings show paper-vs-measured side by side.
package exp

import (
	"context"
	"fmt"
	"strings"

	"sunmap/internal/apps"
	"sunmap/internal/core"
	"sunmap/internal/engine"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// kindOrder fixes the row order of the per-topology tables.
var kindOrder = []topology.Kind{
	topology.Mesh, topology.Torus, topology.Hypercube, topology.Clos, topology.Butterfly,
}

// videoOptions returns the mapping options of the video experiments
// (Section 6.1): 500 MB/s links, 0.1 µm technology.
func videoOptions(fn route.Function, obj mapping.Objective) mapping.Options {
	return mapping.Options{
		Routing:      fn,
		Objective:    obj,
		CapacityMBps: apps.DefaultCapacityMBps,
	}
}

// Row is one per-topology line of a comparison table.
type Row struct {
	Topology string
	AvgHops  float64
	AreaMM2  float64
	PowerMW  float64
	Switches int
	Links    int
	Feasible bool
}

// Fig3dResult compares VOPD on mesh vs torus (Fig. 3d).
type Fig3dResult struct {
	Mesh, Torus Row
	// Paper values for reference.
	PaperHopsRatio, PaperAreaRatio, PaperPowerRatio float64
}

// Fig3d reproduces the motivating mesh-vs-torus table on the runner's
// engine: both mappings go through the pool and the shared cache, so
// fig6's later library sweep reuses the identical design points.
func (r Runner) Fig3d(ctx context.Context) (*Fig3dResult, error) {
	g := apps.VOPD()
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		return nil, err
	}
	torus, err := topology.NewTorus(3, 4)
	if err != nil {
		return nil, err
	}
	opts := videoOptions(route.MinPath, mapping.MinDelay)
	outcomes, err := engine.Sweep(ctx, g, []topology.Topology{mesh, torus}, opts, r.explore())
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		if o.Err != nil {
			return nil, o.Err
		}
	}
	mres, tres := outcomes[0].Result, outcomes[1].Result
	return &Fig3dResult{
		Mesh:            toRow(mres),
		Torus:           toRow(tres),
		PaperHopsRatio:  0.90, // 2.03 / 2.25
		PaperAreaRatio:  1.06, // 57.91 / 54.59
		PaperPowerRatio: 1.22, // 454.9 / 372.1
	}, nil
}

// String renders the Fig. 3(d) table.
func (r *Fig3dResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 3(d) - VOPD mesh vs torus (min-path, 500 MB/s links, 0.1um)\n")
	fmt.Fprintf(&sb, "%-10s %9s %12s %11s\n", "metric", "mesh", "torus", "torus/mesh")
	fmt.Fprintf(&sb, "%-10s %9.2f %12.2f %11.2f   (paper %.2f)\n",
		"avg hops", r.Mesh.AvgHops, r.Torus.AvgHops, ratio(r.Torus.AvgHops, r.Mesh.AvgHops), r.PaperHopsRatio)
	fmt.Fprintf(&sb, "%-10s %9.2f %12.2f %11.2f   (paper %.2f)\n",
		"area mm2", r.Mesh.AreaMM2, r.Torus.AreaMM2, ratio(r.Torus.AreaMM2, r.Mesh.AreaMM2), r.PaperAreaRatio)
	fmt.Fprintf(&sb, "%-10s %9.1f %12.1f %11.2f   (paper %.2f)\n",
		"power mW", r.Mesh.PowerMW, r.Torus.PowerMW, ratio(r.Torus.PowerMW, r.Mesh.PowerMW), r.PaperPowerRatio)
	return sb.String()
}

// Fig6Result holds the VOPD per-topology characteristics (Fig. 6a-d).
type Fig6Result struct {
	Rows []Row
	Best string
}

// Fig6 reproduces the VOPD topology comparison on the runner's engine.
func (r Runner) Fig6(ctx context.Context) (*Fig6Result, error) {
	sel, err := core.SelectContext(ctx, r.selectConfig(core.Config{
		App:     apps.VOPD(),
		Mapping: videoOptions(route.MinPath, mapping.MinDelay),
	}))
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{}
	if sel.Best != nil {
		out.Best = sel.Best.Topology.Name()
	}
	best := sel.BestPerKind()
	rows := sel.Summaries()
	for _, k := range kindOrder {
		r, ok := best[k]
		if !ok {
			continue
		}
		for _, row := range rows {
			if row.Topology == r.Topology.Name() {
				out.Rows = append(out.Rows, Row{
					Topology: row.Topology,
					AvgHops:  row.AvgHops,
					AreaMM2:  row.AreaMM2,
					PowerMW:  row.PowerMW,
					Switches: row.Switches,
					Links:    row.Links,
					Feasible: row.Feasible,
				})
			}
		}
	}
	return out, nil
}

// String renders the four panels of Fig. 6 as one table.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 6 - VOPD mapping characteristics (best config per family)\n")
	fmt.Fprintf(&sb, "%-22s %8s %8s %6s %9s %10s\n", "topology", "avg hops", "switches", "links", "area mm2", "power mW")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %8.2f %8d %6d %9.2f %10.1f\n",
			row.Topology, row.AvgHops, row.Switches, row.Links, row.AreaMM2, row.PowerMW)
	}
	fmt.Fprintf(&sb, "selected: %s  (paper: 4-ary 2-fly butterfly wins all four panels)\n", r.Best)
	return sb.String()
}

// Fig7bResult holds the MPEG4 table (Fig. 7b).
type Fig7bResult struct {
	Rows        []Row
	RoutingUsed route.Function
	Best        string
	// ButterflyInfeasible records the paper's "No Feasible Mapping" cell.
	ButterflyInfeasible bool
}

// Fig7b reproduces the MPEG4 mapping table on the runner's engine.
func (r Runner) Fig7b(ctx context.Context) (*Fig7bResult, error) {
	sel, err := core.SelectContext(ctx, r.selectConfig(core.Config{
		App:             apps.MPEG4(),
		Mapping:         videoOptions(route.MinPath, mapping.MinDelay),
		EscalateRouting: true,
	}))
	if err != nil {
		return nil, err
	}
	out := &Fig7bResult{RoutingUsed: sel.RoutingUsed, ButterflyInfeasible: true}
	// Phase 2 with the composite judgement of Section 6.1: the mesh's
	// area/power savings outweigh its slightly higher delay.
	if best := sel.BestComposite(1, 1, 1); best != nil {
		out.Best = best.Topology.Name()
	}
	best := sel.BestPerKind()
	for _, k := range kindOrder {
		r, ok := best[k]
		if !ok {
			continue
		}
		out.Rows = append(out.Rows, rowFromResult(r))
	}
	if best[topology.Butterfly] != nil {
		out.ButterflyInfeasible = false
	}
	return out, nil
}

func rowFromResult(r *mapping.Result) Row {
	return Row{
		Topology: r.Topology.Name(),
		AvgHops:  r.AvgHops,
		AreaMM2:  r.DesignAreaMM2,
		PowerMW:  r.PowerMW,
		Switches: r.Topology.NumRouters(),
		Links:    topology.PhysicalLinks(r.Topology),
		Feasible: r.Feasible(),
	}
}

// String renders the Fig. 7(b) table.
func (r *Fig7bResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 7(b) - MPEG4 mappings (routing escalated to %v)\n", r.RoutingUsed)
	fmt.Fprintf(&sb, "%-22s %8s %9s %10s\n", "topology", "avg hops", "area mm2", "power mW")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %8.2f %9.2f %10.1f\n", row.Topology, row.AvgHops, row.AreaMM2, row.PowerMW)
	}
	if r.ButterflyInfeasible {
		sb.WriteString("butterfly              no feasible mapping (paper: same)\n")
	} else {
		sb.WriteString("butterfly              UNEXPECTEDLY FEASIBLE (paper: no feasible mapping)\n")
	}
	fmt.Fprintf(&sb, "selected: %s  (paper: mesh)\n", r.Best)
	return sb.String()
}

// Fig9aResult holds the routing-function bandwidth sweep (Fig. 9a).
type Fig9aResult struct {
	Rows []core.RoutingSweepRow
}

// Fig9a reproduces the minimum-bandwidth bars on the runner's engine.
func (r Runner) Fig9a(ctx context.Context) (*Fig9aResult, error) {
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		return nil, err
	}
	rows, err := core.RoutingSweepContext(ctx, apps.MPEG4(), mesh, mapping.Options{
		Objective:    mapping.MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	}, r.explore())
	if err != nil {
		return nil, err
	}
	return &Fig9aResult{Rows: rows}, nil
}

// String renders the Fig. 9(a) bars.
func (r *Fig9aResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 9(a) - MPEG4 on mesh: minimum required link bandwidth per routing function\n")
	fmt.Fprintf(&sb, "%-4s %14s %12s\n", "fn", "required MB/s", "fits 500?")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-4v %14.1f %12v\n", row.Function, row.RequiredMBps, row.FeasibleAt500)
	}
	sb.WriteString("(paper: only the split-traffic functions fit under 500 MB/s)\n")
	return sb.String()
}

// Fig9bResult holds the Pareto exploration (Fig. 9b).
type Fig9bResult struct {
	Points []core.ParetoPoint
}

// Fig9b reproduces the Pareto exploration on the runner's engine.
func (r Runner) Fig9b(ctx context.Context) (*Fig9bResult, error) {
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		return nil, err
	}
	pts, err := core.ParetoExploreContext(ctx, apps.MPEG4(), mesh, mapping.Options{
		Routing:      route.SplitMin,
		CapacityMBps: apps.DefaultCapacityMBps,
	}, 5, r.explore())
	if err != nil {
		return nil, err
	}
	return &Fig9bResult{Points: pts}, nil
}

// String renders the Fig. 9(b) point cloud.
func (r *Fig9bResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 9(b) - MPEG4 on mesh: area-power design points (P = Pareto front)\n")
	fmt.Fprintf(&sb, "%-9s %9s %8s %8s\n", "area mm2", "power mW", "hops", "front")
	for _, p := range r.Points {
		mark := ""
		if p.Dominant {
			mark = "P"
		}
		fmt.Fprintf(&sb, "%-9.2f %9.1f %8.2f %8s\n", p.AreaMM2, p.PowerMW, p.AvgHops, mark)
	}
	return sb.String()
}

func toRow(r *mapping.Result) Row { return rowFromResult(r) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
