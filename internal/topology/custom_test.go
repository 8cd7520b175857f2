package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ringSpec builds a valid 4-router ring with one terminal per router.
func ringSpec(name string) CustomSpec {
	return CustomSpec{
		Name:        name,
		NumRouters:  4,
		BiLinks:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		Terminals:   []int{0, 1, 2, 3},
		RouterPos:   [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}},
		TerminalPos: [][2]float64{{0, -0.5}, {1, -0.5}, {1, 1.5}, {0, 1.5}},
	}
}

func TestNewCustomRing(t *testing.T) {
	topo, err := NewCustom(ringSpec("custom-ring4"))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != Synth {
		t.Errorf("kind = %v, want synth", topo.Kind())
	}
	if !topo.Kind().Direct() {
		t.Error("synth kind must count as direct for NI-link accounting")
	}
	if got := topo.MinHops(0, 2); got != 3 {
		t.Errorf("MinHops(0,2) = %d, want 3 (two links + first router)", got)
	}
	// The quadrant for opposite corners must admit both two-link routes
	// around the ring and still preserve the minimum distance (checked by
	// Validate, re-checked here for the precomputed masks).
	q := topo.Quadrant(0, 2)
	for r, ok := range q {
		if !ok {
			t.Errorf("quadrant 0->2 excludes router %d of a symmetric ring", r)
		}
	}
}

func TestNewCustomRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CustomSpec)
		want string
	}{
		{"empty name", func(s *CustomSpec) { s.Name = "" }, "needs a name"},
		{"self loop", func(s *CustomSpec) { s.BiLinks[0] = [2]int{1, 1} }, "self-loop"},
		{"dup link", func(s *CustomSpec) { s.BiLinks[1] = [2]int{1, 0} }, "repeats link"},
		{"link range", func(s *CustomSpec) { s.BiLinks[0] = [2]int{0, 9} }, "out of range"},
		{"terminal range", func(s *CustomSpec) { s.Terminals[2] = -1 }, "out of range"},
		{"router pos len", func(s *CustomSpec) { s.RouterPos = s.RouterPos[:2] }, "router positions"},
		{"terminal pos len", func(s *CustomSpec) { s.TerminalPos = s.TerminalPos[:1] }, "terminal positions"},
		{"disconnected", func(s *CustomSpec) { s.BiLinks = s.BiLinks[:2] }, "disconnected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := ringSpec("custom-bad")
			tc.mut(&spec)
			_, err := NewCustom(spec)
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRegisterAndByName(t *testing.T) {
	const name = "custom-registry-ring"
	topo, err := NewCustom(ringSpec(name))
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(topo); err != nil {
		t.Fatal(err)
	}
	defer Unregister(name)

	got, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != name || got.NumRouters() != 4 {
		t.Errorf("ByName returned %s with %d routers", got.Name(), got.NumRouters())
	}
	found := false
	for _, r := range Registered() {
		if r.Name() == name {
			found = true
		}
	}
	if !found {
		t.Error("Registered() does not list the custom topology")
	}

	// Library names are still resolved by construction, never shadowed.
	if err := Register(mustCustomNamed(t, "mesh-2x2")); err == nil {
		t.Error("registry accepted a library-grammar name")
	}

	Unregister(name)
	if _, err := ByName(name); err == nil {
		t.Error("ByName still resolves an unregistered custom topology")
	}
}

func mustCustomNamed(t *testing.T, name string) Topology {
	t.Helper()
	spec := ringSpec(name)
	c, err := NewCustom(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLibraryOptionsRejectInvalid is the regression test for the silent
// coercion bug: explicit MaxButterflyRadix/MaxClosFanIn values below 2
// used to be bumped to the default 4; they must surface as errors.
func TestLibraryOptionsRejectInvalid(t *testing.T) {
	for _, opts := range []LibraryOptions{
		{MaxButterflyRadix: 1},
		{MaxButterflyRadix: -3},
		{MaxClosFanIn: 1},
		{MaxClosFanIn: -1},
	} {
		if _, err := Enumerate(Butterfly, 8, opts); err == nil {
			t.Errorf("Enumerate accepted invalid options %+v", opts)
		}
		if _, err := Library(8, opts); err == nil {
			t.Errorf("Library accepted invalid options %+v", opts)
		}
	}
	// Zero still selects the defaults and valid explicit values still work.
	if ts, err := Enumerate(Butterfly, 8, LibraryOptions{}); err != nil || len(ts) == 0 {
		t.Errorf("default options broke: %v (%d topologies)", err, len(ts))
	}
	if ts, err := Enumerate(Butterfly, 8, LibraryOptions{MaxButterflyRadix: 2}); err != nil || len(ts) == 0 {
		t.Errorf("explicit radix 2 broke: %v (%d topologies)", err, len(ts))
	}
}

// randomCustomSpec builds a seeded synthesized spec: a connected random
// graph over the first `live` routers carrying every terminal (a spanning
// tree plus extra links), and, past it, routers joined only among
// themselves, so pairs across the two parts are unreachable.
func randomCustomSpec(seed int64, live, dead int) CustomSpec {
	rng := rand.New(rand.NewSource(seed))
	n := live + dead
	spec := CustomSpec{
		Name:       fmt.Sprintf("synth-quad-%d", seed),
		NumRouters: n,
		RouterPos:  make([][2]float64, n),
	}
	seen := map[[2]int]bool{}
	link := func(u, v int) {
		key := [2]int{min(u, v), max(u, v)}
		if u != v && !seen[key] {
			seen[key] = true
			spec.BiLinks = append(spec.BiLinks, key)
		}
	}
	for v := 1; v < live; v++ {
		link(rng.Intn(v), v)
	}
	for i := 0; i < live; i++ {
		link(rng.Intn(live), rng.Intn(live))
	}
	for v := live + 1; v < n; v++ {
		link(live+rng.Intn(v-live), v)
	}
	for r := range spec.RouterPos {
		spec.RouterPos[r] = [2]float64{float64(r % 4), float64(r / 4)}
	}
	for t := 0; t < live+live/2; t++ {
		r := t % live
		if t >= live {
			r = rng.Intn(live)
		}
		spec.Terminals = append(spec.Terminals, r)
		spec.TerminalPos = append(spec.TerminalPos, spec.RouterPos[r])
	}
	return spec
}

// TestCustomQuadrantMatchesBFS checks the on-demand quadrant of every
// router pair of seeded synthesized topologies — one with routers
// unreachable from the terminals' part — against its two-BFS
// definition: router u qualifies when the forward distance s->u plus the
// backward distance u->d equals dist(s,d), and an unreachable pair
// admits every router.
func TestCustomQuadrantMatchesBFS(t *testing.T) {
	specs := []CustomSpec{randomCustomSpec(1, 12, 3)}
	for seed := int64(2); seed <= 6; seed++ {
		specs = append(specs, randomCustomSpec(seed, 4+3*int(seed), 0))
	}
	unreachable := 0
	for _, spec := range specs {
		topo, err := NewCustom(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := topo.(*customTopology)
		g, n := c.Graph(), c.NumRouters()
		bwdFrom := make([][]int, n) // bwdFrom[d][u]: hop distance u->d
		for d := range bwdFrom {
			bwdFrom[d] = g.BFSDistances(d, true)
		}
		for s := 0; s < n; s++ {
			fwd := g.BFSDistances(s, false)
			for d := 0; d < n; d++ {
				bwd := bwdFrom[d]
				want := make([]bool, n)
				for u := range want {
					if fwd[d] < 0 {
						want[u] = true
					} else {
						want[u] = fwd[u] >= 0 && bwd[u] >= 0 && fwd[u]+bwd[u] == fwd[d]
					}
				}
				if fwd[d] < 0 {
					unreachable++
				}
				if got := c.quadrant(s, d); !slices.Equal(got, want) {
					t.Fatalf("%s routers %d->%d: quadrant %v, two-BFS definition %v", spec.Name, s, d, got, want)
				}
			}
		}
		for s := 0; s < c.NumTerminals(); s++ {
			for d := 0; d < c.NumTerminals(); d++ {
				if !slices.Equal(c.Quadrant(s, d), c.quadrant(c.InjectRouter(s), c.EjectRouter(d))) {
					t.Fatalf("%s terminals %d->%d: Quadrant differs from its routers' mask", spec.Name, s, d)
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no unreachable router pair was checked")
	}
}
