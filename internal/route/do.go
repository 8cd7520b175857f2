package route

import (
	"fmt"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// routeDO routes one commodity with the oblivious dimension-ordered
// discipline and commits the result. DO cannot adapt: when the active
// failed-link mask covers any arc of its fixed path, the commodity is
// undeliverable and the call errors (degraded-mode sweeps reroute with
// an adaptive function instead — see fault.Degraded).
func (rt *Router) routeDO(srcT, dstT int, c graph.Commodity, res *Result, collect bool) error {
	verts, arcs, err := rt.PathDO(srcT, dstT, c)
	if err != nil {
		return err
	}
	if rt.down != nil {
		for _, id := range arcs {
			if rt.down[id] {
				return fmt.Errorf("route: DO path of commodity %d crosses down link %d on %s", //sunmap:alloc error path
					c.ID, id, rt.topo.Name())
			}
		}
	}
	commit(res, c, 1.0, verts, arcs, collect)
	return nil
}

// PathDO computes the oblivious dimension-ordered path of commodity c from
// terminal srcT to dstT: XY on grids (columns first, then rows; tori take
// the shorter wrap direction, ties resolved toward increasing coordinates),
// ascending bit order on hypercubes, and a terminal-determined middle
// switch on Clos networks. Topologies with a unique or hub path (butterfly,
// star) fall back to their single path; other kinds route load-obliviously
// on a minimum-hop path. The path never depends on link loads, which is
// what lets the mapper's delta evaluator splice unaffected DO commodities
// without re-routing them. The returned slices alias Router scratch.
func (rt *Router) PathDO(srcT, dstT int, c graph.Commodity) (verts, arcs []int, err error) {
	topo := rt.topo
	src, dst := topo.InjectRouter(srcT), topo.EjectRouter(dstT)
	switch tt := topo.(type) {
	case topology.GridLike:
		rows, cols := tt.GridDims()
		verts = rt.gridDOPath(src, dst, rows, cols, topo.Kind() == topology.Torus)
	case topology.CubeLike:
		verts = rt.cubeDOPath(src, dst, tt.Dim())
	case topology.ClosLike:
		m, _, r := tt.Params()
		mid := r + (srcT+dstT)%m
		rt.verts = append(rt.verts[:0], src, mid, dst)
		verts = rt.verts
	default:
		// Butterfly (unique path), star (hub) and any future kinds:
		// oblivious minimum-hop routing, deterministic by construction.
		v, a, ok := rt.shortest(src, dst, graph.UnitWeight, rt.quadrant(srcT, dstT))
		if !ok {
			return nil, nil, fmt.Errorf("route: DO found no path for commodity %d on %s", c.ID, topo.Name()) //sunmap:alloc error path
		}
		return v, a, nil
	}
	arcs, err = rt.arcsAlong(verts)
	if err != nil {
		return nil, nil, fmt.Errorf("route: DO commodity %d on %s: %w", c.ID, topo.Name(), err) //sunmap:alloc error path
	}
	return verts, arcs, nil
}

// gridDOPath walks column-first then row-first from src to dst on a
// rows x cols grid, using wrap-around steps on tori when strictly shorter.
// The walk is built in the Router's vertex scratch.
func (rt *Router) gridDOPath(src, dst, rows, cols int, wrap bool) []int {
	sr, sc := src/cols, src%cols
	dr, dc := dst/cols, dst%cols
	verts := append(rt.verts[:0], src)
	stepToward := func(cur, want, n int) int { //sunmap:alloc non-escaping closure, stack-allocated
		if !wrap {
			if cur < want {
				return cur + 1
			}
			return cur - 1
		}
		fwd := (want - cur + n) % n
		bwd := (cur - want + n) % n
		if fwd <= bwd {
			return (cur + 1) % n
		}
		return (cur - 1 + n) % n
	}
	r, col := sr, sc
	for col != dc {
		col = stepToward(col, dc, cols)
		verts = append(verts, r*cols+col) //sunmap:alloc amortized growth of router vertex scratch
	}
	for r != dr {
		r = stepToward(r, dr, rows)
		verts = append(verts, r*cols+col) //sunmap:alloc amortized growth of router vertex scratch
	}
	rt.verts = verts
	return verts
}

// cubeDOPath fixes differing address bits from least to most significant.
func (rt *Router) cubeDOPath(src, dst, dim int) []int {
	verts := append(rt.verts[:0], src)
	cur := src
	for b := 0; b < dim; b++ {
		if (cur^dst)&(1<<b) != 0 {
			cur ^= 1 << b
			verts = append(verts, cur) //sunmap:alloc amortized growth of router vertex scratch
		}
	}
	rt.verts = verts
	return verts
}

// arcsAlong resolves the link IDs for a router walk into the arc scratch.
func (rt *Router) arcsAlong(verts []int) ([]int, error) {
	arcs := rt.arcs[:0]
	g := rt.topo.Graph()
	for i := 0; i+1 < len(verts); i++ {
		found := -1
		for _, a := range g.Out(verts[i]) {
			if a.To == verts[i+1] {
				found = a.ID
				break
			}
		}
		if found < 0 {
			rt.arcs = arcs
			return nil, fmt.Errorf("no link %d->%d", verts[i], verts[i+1]) //sunmap:alloc error path
		}
		arcs = append(arcs, found) //sunmap:alloc amortized growth of router arc scratch
	}
	rt.arcs = arcs
	return arcs, nil
}
