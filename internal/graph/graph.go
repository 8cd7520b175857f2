// Package graph implements the application core graph of SUNMAP (Definition 1
// of the paper) together with a small generic directed-graph toolkit used by
// the topology and routing layers.
//
// A CoreGraph holds the cores of an SoC and the directed communication
// demands between them. Edge weights are sustained bandwidths in MB/s, the
// unit used throughout the paper. Each edge becomes a single-commodity flow
// (Definition 2's set D) when handed to the mapper.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Core describes one IP block of the SoC. Area and aspect-ratio bounds feed
// the floorplanner; the paper treats per-core area/power as tool inputs
// (Section 5).
type Core struct {
	// Name is the unique identifier of the core (e.g. "idct").
	Name string
	// AreaMM2 is the silicon area of the core in square millimetres.
	AreaMM2 float64
	// Soft marks a block with flexible dimensions. Soft blocks may be
	// resized by the floorplanner within the aspect-ratio bounds below.
	Soft bool
	// MinAspect and MaxAspect bound width/height for soft blocks.
	// Zero values default to [0.5, 2.0].
	MinAspect, MaxAspect float64
}

// AspectBounds returns the effective aspect-ratio interval for the core,
// substituting the defaults for zero values.
func (c Core) AspectBounds() (lo, hi float64) {
	lo, hi = c.MinAspect, c.MaxAspect
	if lo <= 0 {
		lo = 0.5
	}
	if hi <= 0 {
		hi = 2.0
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// Edge is a directed communication demand between two cores.
type Edge struct {
	// From and To are core indices within the owning CoreGraph.
	From, To int
	// BandwidthMBps is the sustained bandwidth of the flow in MB/s
	// (the comm weight of Definition 1).
	BandwidthMBps float64
}

// Commodity is a single-commodity flow d_k derived from one core-graph edge
// (the set D of the paper). Src and Dst are core indices; the mapper
// translates them to topology nodes through the mapping function.
type Commodity struct {
	// ID is the index of the commodity within the sorted commodity list.
	ID int
	// Src and Dst are core indices.
	Src, Dst int
	// ValueMBps is vl(d_k), the bandwidth of the flow in MB/s.
	ValueMBps float64
}

// CoreGraph is the directed application graph G(V,E) of Definition 1.
// The zero value is an empty graph ready for use.
type CoreGraph struct {
	name  string
	cores []Core
	edges []Edge
	index map[string]int
}

// NewCoreGraph returns an empty core graph with the given name.
func NewCoreGraph(name string) *CoreGraph {
	return &CoreGraph{name: name, index: make(map[string]int)}
}

// Name returns the application name.
func (g *CoreGraph) Name() string { return g.name }

// NumCores returns |V|.
func (g *CoreGraph) NumCores() int { return len(g.cores) }

// NumEdges returns |E|.
func (g *CoreGraph) NumEdges() int { return len(g.edges) }

// Core returns the i-th core. It panics if i is out of range.
func (g *CoreGraph) Core(i int) Core { return g.cores[i] }

// Cores returns a copy of the core list.
func (g *CoreGraph) Cores() []Core {
	out := make([]Core, len(g.cores))
	copy(out, g.cores)
	return out
}

// Edges returns a copy of the edge list.
func (g *CoreGraph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Edge returns edge i (0 <= i < NumEdges) without copying the edge list.
func (g *CoreGraph) Edge(i int) Edge { return g.edges[i] }

// CoreIndex returns the index of the named core and whether it exists.
func (g *CoreGraph) CoreIndex(name string) (int, bool) {
	i, ok := g.index[name]
	return i, ok
}

// AddCore appends a core and returns its index. Adding a duplicate name is
// an error because names key the text format and the generated netlists.
func (g *CoreGraph) AddCore(c Core) (int, error) {
	if c.Name == "" {
		return 0, fmt.Errorf("graph: core name must not be empty")
	}
	if _, dup := g.index[c.Name]; dup {
		return 0, fmt.Errorf("graph: duplicate core %q", c.Name)
	}
	if c.AreaMM2 < 0 {
		return 0, fmt.Errorf("graph: core %q has negative area %g", c.Name, c.AreaMM2)
	}
	if g.index == nil {
		g.index = make(map[string]int)
	}
	g.cores = append(g.cores, c)
	g.index[c.Name] = len(g.cores) - 1
	return len(g.cores) - 1, nil
}

// MustAddCore is AddCore for statically known inputs; it panics on error.
func (g *CoreGraph) MustAddCore(c Core) int {
	i, err := g.AddCore(c)
	if err != nil {
		panic(err)
	}
	return i
}

// Connect adds a directed flow between two named cores.
func (g *CoreGraph) Connect(from, to string, bwMBps float64) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("graph: unknown core %q", from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("graph: unknown core %q", to)
	}
	if fi == ti {
		return fmt.Errorf("graph: self-loop on core %q", from)
	}
	if bwMBps <= 0 {
		return fmt.Errorf("graph: flow %s->%s has non-positive bandwidth %g", from, to, bwMBps)
	}
	g.edges = append(g.edges, Edge{From: fi, To: ti, BandwidthMBps: bwMBps})
	return nil
}

// MustConnect is Connect for statically known inputs; it panics on error.
func (g *CoreGraph) MustConnect(from, to string, bwMBps float64) {
	if err := g.Connect(from, to, bwMBps); err != nil {
		panic(err)
	}
}

// Validate checks structural invariants: non-empty, unique names, in-range
// edges, positive bandwidths. Builders already enforce these; Validate
// guards graphs constructed by deserialization or tests.
func (g *CoreGraph) Validate() error {
	if len(g.cores) == 0 {
		return fmt.Errorf("graph: %q has no cores", g.name)
	}
	seen := make(map[string]bool, len(g.cores))
	for i, c := range g.cores {
		if c.Name == "" {
			return fmt.Errorf("graph: core %d has empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("graph: duplicate core name %q", c.Name)
		}
		seen[c.Name] = true
		if c.AreaMM2 < 0 {
			return fmt.Errorf("graph: core %q has negative area", c.Name)
		}
	}
	for _, e := range g.edges {
		if e.From < 0 || e.From >= len(g.cores) || e.To < 0 || e.To >= len(g.cores) {
			return fmt.Errorf("graph: edge %d->%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: self-loop on core %q", g.cores[e.From].Name)
		}
		if e.BandwidthMBps <= 0 {
			return fmt.Errorf("graph: edge %s->%s has non-positive bandwidth",
				g.cores[e.From].Name, g.cores[e.To].Name)
		}
	}
	return nil
}

// Commodities returns the commodity set D sorted by decreasing bandwidth,
// the order the mapping algorithm routes them in (Fig. 5, step 2). Ties
// break on (Src, Dst) so the ordering is deterministic.
func (g *CoreGraph) Commodities() []Commodity {
	out := make([]Commodity, len(g.edges))
	for i, e := range g.edges {
		out[i] = Commodity{Src: e.From, Dst: e.To, ValueMBps: e.BandwidthMBps}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].ValueMBps != out[j].ValueMBps {
			return out[i].ValueMBps > out[j].ValueMBps
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	for i := range out {
		out[i].ID = i
	}
	return out
}

// TotalBandwidthMBps returns the sum of all flow bandwidths.
func (g *CoreGraph) TotalBandwidthMBps() float64 {
	var sum float64
	for _, e := range g.edges {
		sum += e.BandwidthMBps
	}
	return sum
}

// MaxEdgeMBps returns the largest single flow, the lower bound on the link
// capacity any single-path routing needs.
func (g *CoreGraph) MaxEdgeMBps() float64 {
	var m float64
	for _, e := range g.edges {
		if e.BandwidthMBps > m {
			m = e.BandwidthMBps
		}
	}
	return m
}

// CommVolume returns the total bandwidth core i sends plus receives. The
// greedy initial mapping seeds with the core maximizing this value.
func (g *CoreGraph) CommVolume(i int) float64 {
	var sum float64
	for _, e := range g.edges {
		if e.From == i || e.To == i {
			sum += e.BandwidthMBps
		}
	}
	return sum
}

// CommBetween returns the total bandwidth flowing between cores i and j in
// either direction.
func (g *CoreGraph) CommBetween(i, j int) float64 {
	var sum float64
	for _, e := range g.edges {
		if (e.From == i && e.To == j) || (e.From == j && e.To == i) {
			sum += e.BandwidthMBps
		}
	}
	return sum
}

// TotalCoreAreaMM2 returns the summed area of all cores.
func (g *CoreGraph) TotalCoreAreaMM2() float64 {
	var sum float64
	for _, c := range g.cores {
		sum += c.AreaMM2
	}
	return sum
}

// Neighbors returns the indices of cores that core i communicates with
// (either direction), in ascending order without duplicates.
func (g *CoreGraph) Neighbors(i int) []int {
	set := make(map[int]bool)
	for _, e := range g.edges {
		if e.From == i {
			set[e.To] = true
		}
		if e.To == i {
			set[e.From] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of the graph.
func (g *CoreGraph) Clone() *CoreGraph {
	c := &CoreGraph{
		name:  g.name,
		cores: make([]Core, len(g.cores)),
		edges: make([]Edge, len(g.edges)),
		index: make(map[string]int, len(g.index)),
	}
	copy(c.cores, g.cores)
	copy(c.edges, g.edges)
	for k, v := range g.index {
		c.index[k] = v
	}
	return c
}

// String summarizes the graph for logs and error messages.
func (g *CoreGraph) String() string {
	return fmt.Sprintf("%s: %d cores, %d flows, %.1f MB/s total",
		g.name, len(g.cores), len(g.edges), g.TotalBandwidthMBps())
}

// WriteDOT renders the core graph in Graphviz DOT format with bandwidth
// edge labels, handy for inspecting transcribed benchmarks.
func (g *CoreGraph) WriteDOT(sb *strings.Builder) {
	fmt.Fprintf(sb, "digraph %q {\n", g.name)
	sb.WriteString("  rankdir=LR;\n  node [shape=box];\n")
	for _, c := range g.cores {
		fmt.Fprintf(sb, "  %q [label=\"%s\\n%.1f mm2\"];\n", c.Name, c.Name, c.AreaMM2)
	}
	for _, e := range g.edges {
		fmt.Fprintf(sb, "  %q -> %q [label=\"%g\"];\n",
			g.cores[e.From].Name, g.cores[e.To].Name, e.BandwidthMBps)
	}
	sb.WriteString("}\n")
}

// DOT returns the Graphviz rendering as a string.
func (g *CoreGraph) DOT() string {
	var sb strings.Builder
	g.WriteDOT(&sb)
	return sb.String()
}
