package topology

import (
	"fmt"
	"math"
)

// CustomSpec describes an arbitrary topology for NewCustom — the escape
// hatch the synthesized (application-specific) topologies of internal/synth
// are built through. Links are given as undirected router pairs; each
// becomes a bidirectional channel pair, matching the mesh-style links of
// the library's direct topologies.
type CustomSpec struct {
	// Name is the canonical identifier (e.g. "synth-cluster4-mpeg4"); it
	// must be non-empty and should not collide with the library's name
	// grammar (mesh-RxC, clos-mMnNrR, ...).
	Name string
	// NumRouters is the switch count.
	NumRouters int
	// BiLinks lists undirected router pairs; each adds channels both ways.
	// Pairs must not repeat (in either orientation) or self-loop.
	BiLinks [][2]int
	// Terminals[t] is the router terminal t attaches to. Traffic of a core
	// mapped to terminal t both enters and leaves the network there.
	Terminals []int
	// RouterPos holds the relative placement of each router (grid units,
	// consumed by the floorplanner). Length NumRouters.
	RouterPos [][2]float64
	// TerminalPos holds the relative placement of each terminal's core
	// block. Length len(Terminals).
	TerminalPos [][2]float64
}

// customTopology is an arbitrary synthesized network. Unlike the library
// families it has no closed-form quadrant; per-pair masks are derived from
// BFS hop distances so minimum-path routing still searches a restricted
// region (the union of all minimum paths, the defining property of
// Section 4.3).
type customTopology struct {
	*base
	// hops[s*numRouters+d] is the hop distance from router s to router d,
	// -1 when d is unreachable from s.
	hops []int16
}

// NewCustom builds and validates a topology from an explicit specification.
// The returned topology has Kind Synth.
func NewCustom(spec CustomSpec) (Topology, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("topology: custom topology needs a name")
	}
	if spec.NumRouters < 1 || spec.NumRouters > math.MaxInt16 {
		return nil, fmt.Errorf("topology: custom %s has %d routers", spec.Name, spec.NumRouters)
	}
	if len(spec.Terminals) < 1 {
		return nil, fmt.Errorf("topology: custom %s has no terminals", spec.Name)
	}
	if len(spec.RouterPos) != spec.NumRouters {
		return nil, fmt.Errorf("topology: custom %s has %d router positions, want %d",
			spec.Name, len(spec.RouterPos), spec.NumRouters)
	}
	if len(spec.TerminalPos) != len(spec.Terminals) {
		return nil, fmt.Errorf("topology: custom %s has %d terminal positions, want %d",
			spec.Name, len(spec.TerminalPos), len(spec.Terminals))
	}
	c := &customTopology{base: newBase(spec.Name, Synth, spec.NumRouters, len(spec.Terminals))}
	seen := make(map[[2]int]bool, len(spec.BiLinks))
	for _, l := range spec.BiLinks {
		u, v := l[0], l[1]
		if u < 0 || u >= spec.NumRouters || v < 0 || v >= spec.NumRouters {
			return nil, fmt.Errorf("topology: custom %s link %d-%d out of range", spec.Name, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("topology: custom %s has self-loop on router %d", spec.Name, u)
		}
		key := [2]int{minInt(u, v), maxInt(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("topology: custom %s repeats link %d-%d", spec.Name, u, v)
		}
		seen[key] = true
		c.addBiLink(u, v)
	}
	for t, r := range spec.Terminals {
		if r < 0 || r >= spec.NumRouters {
			return nil, fmt.Errorf("topology: custom %s terminal %d on router %d out of range",
				spec.Name, t, r)
		}
		c.inject[t] = r
		c.eject[t] = r
		c.tpos[t] = spec.TerminalPos[t]
	}
	for r := range spec.RouterPos {
		c.pos[r] = spec.RouterPos[r]
	}
	c.buildHops()
	if err := Validate(c); err != nil {
		return nil, err
	}
	return c, nil
}

// buildHops fills the router hop-distance table, one BFS per router.
func (c *customTopology) buildHops() {
	n := c.NumRouters()
	c.hops = make([]int16, n*n)
	for s := 0; s < n; s++ {
		for d, h := range c.rg.BFSDistances(s, false) {
			c.hops[s*n+d] = int16(h)
		}
	}
}

// Quadrant returns the minimum-path mask of the terminal pair's routers.
func (c *customTopology) Quadrant(src, dst int) []bool {
	return c.quadrant(c.inject[src], c.eject[dst])
}

// quadrant returns the routers lying on at least one minimum-hop s->d
// path: router u qualifies when dist(s,u) + dist(u,d) equals dist(s,d).
// The mask therefore preserves the minimum distance by construction. A
// pair with no path gets the full-router mask so the disconnection
// surfaces as a routing error rather than a silently wrong restriction.
func (c *customTopology) quadrant(s, d int) []bool {
	n := c.NumRouters()
	total := int(c.hops[s*n+d])
	if total < 0 {
		return c.allRouters()
	}
	mask := make([]bool, n)
	for u := range mask {
		su, ud := int(c.hops[s*n+u]), int(c.hops[u*n+d])
		mask[u] = su >= 0 && ud >= 0 && su+ud == total
	}
	return mask
}
