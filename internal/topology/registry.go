package topology

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// LibraryOptions tunes the configuration enumeration of Enumerate and
// Library. The zero value gives the paper's defaults.
type LibraryOptions struct {
	// MaxAspect caps cols/rows for mesh and torus shapes (default 4).
	MaxAspect float64
	// MaxButterflyRadix caps k for k-ary n-fly enumeration (default 4).
	MaxButterflyRadix int
	// MaxClosFanIn caps n (terminals per ingress switch) for Clos
	// enumeration (default 4).
	MaxClosFanIn int
	// IncludeExtras adds the octagon and star extensions to Library.
	IncludeExtras bool
	// MaxTerminalSlack drops configurations whose terminal count exceeds
	// numCores by more than this factor (default 3.0), pruning absurdly
	// oversized networks.
	MaxTerminalSlack float64
}

// withDefaults substitutes the paper's defaults for zero values and
// rejects explicitly invalid settings: a butterfly radix or Clos fan-in
// below 2 describes no constructible network, so such values surface as
// errors instead of being silently coerced to the default.
func (o LibraryOptions) withDefaults() (LibraryOptions, error) {
	if o.MaxAspect <= 0 {
		o.MaxAspect = 4
	}
	switch {
	case o.MaxButterflyRadix == 0:
		o.MaxButterflyRadix = 4
	case o.MaxButterflyRadix < 2:
		return o, fmt.Errorf("topology: MaxButterflyRadix %d is invalid (want 0 for the default, or >= 2)",
			o.MaxButterflyRadix)
	}
	switch {
	case o.MaxClosFanIn == 0:
		o.MaxClosFanIn = 4
	case o.MaxClosFanIn < 2:
		return o, fmt.Errorf("topology: MaxClosFanIn %d is invalid (want 0 for the default, or >= 2)",
			o.MaxClosFanIn)
	}
	if o.MaxTerminalSlack <= 0 {
		o.MaxTerminalSlack = 3.0
	}
	return o, nil
}

// Enumerate returns the sensible configurations of one topology family able
// to host numCores cores, ordered by increasing terminal count then name.
// SUNMAP evaluates every returned configuration during Phase 1 and lets the
// objective function pick among them — this is how, e.g., the DSP filter
// ends up on a 3-ary 2-fly (3x3 switches, Fig. 10b) while VOPD lands on a
// 4-ary 2-fly.
func Enumerate(kind Kind, numCores int, opts LibraryOptions) ([]Topology, error) {
	if numCores < 2 {
		return nil, fmt.Errorf("topology: need at least 2 cores, got %d", numCores)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	maxTerms := int(math.Ceil(float64(numCores) * opts.MaxTerminalSlack))
	var out []Topology
	add := func(t Topology, err error) error {
		if err != nil {
			return err
		}
		if t.NumTerminals() < numCores || t.NumTerminals() > maxTerms {
			return nil
		}
		out = append(out, t)
		return nil
	}
	switch kind {
	case Mesh, Torus:
		minDim := 1
		if kind == Torus {
			minDim = 3
		}
		for rows := minDim; rows*rows <= numCores+rows; rows++ {
			cols := (numCores + rows - 1) / rows
			if cols < minDim {
				cols = minDim // torus needs >= 3 per dimension
			}
			if cols < rows {
				continue
			}
			if float64(cols)/float64(rows) > opts.MaxAspect {
				continue
			}
			var err error
			if kind == Mesh {
				err = add(libraryTopology(fmt.Sprintf("mesh-%dx%d", rows, cols)))
			} else {
				err = add(libraryTopology(fmt.Sprintf("torus-%dx%d", rows, cols)))
			}
			if err != nil {
				return nil, err
			}
		}
	case Hypercube:
		dim := 1
		for 1<<dim < numCores {
			dim++
		}
		if err := add(libraryTopology(fmt.Sprintf("hypercube-%d", dim))); err != nil {
			return nil, err
		}
	case Butterfly:
		for k := 2; k <= opts.MaxButterflyRadix; k++ {
			n := 2
			terms := k * k
			for terms < numCores {
				terms *= k
				n++
			}
			if err := add(libraryTopology(fmt.Sprintf("butterfly-%dary%dfly", k, n))); err != nil {
				return nil, err
			}
		}
	case Clos:
		for n := 2; n <= opts.MaxClosFanIn; n++ {
			r := (numCores + n - 1) / n
			if r < 2 {
				continue
			}
			for _, m := range []int{n, 2*n - 1} {
				if err := add(libraryTopology(fmt.Sprintf("clos-m%dn%dr%d", m, n, r))); err != nil {
					return nil, err
				}
			}
		}
	case Octagon:
		if numCores <= 8 {
			if err := add(libraryTopology("octagon")); err != nil {
				return nil, err
			}
		}
	case Star:
		if err := add(libraryTopology(fmt.Sprintf("star-%d", numCores))); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("topology: unknown kind %v", kind)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NumTerminals() != out[j].NumTerminals() {
			return out[i].NumTerminals() < out[j].NumTerminals()
		}
		return out[i].Name() < out[j].Name()
	})
	// Deduplicate by name (clos m=n and m=2n-1 collide when n=1, etc.).
	dedup := out[:0]
	seen := make(map[string]bool)
	for _, t := range out {
		if !seen[t.Name()] {
			seen[t.Name()] = true
			dedup = append(dedup, t)
		}
	}
	return dedup, nil
}

// Library returns every configuration of the paper's five-family topology
// library (plus extras when requested) able to host numCores cores.
func Library(numCores int, opts LibraryOptions) ([]Topology, error) {
	kinds := []Kind{Mesh, Torus, Hypercube, Butterfly, Clos}
	if opts.IncludeExtras {
		kinds = append(kinds, Octagon, Star)
	}
	var out []Topology
	for _, k := range kinds {
		ts, err := Enumerate(k, numCores, opts)
		if err != nil {
			return nil, fmt.Errorf("topology: enumerating %v: %w", k, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// ByName constructs a topology from its canonical name (e.g. "mesh-3x4",
// "butterfly-4ary2fly", "clos-m4n4r4", "hypercube-4", "octagon",
// "star-12"), the format produced by Topology.Name. Names outside the
// library grammar resolve against the custom-topology registry, so
// synthesized networks registered in this process (internal/synth) are
// addressable the same way as library members. Library names resolve to
// one shared, interned instance per process, as do Enumerate's and
// Library's results.
func ByName(name string) (Topology, error) {
	if t, err := libraryTopology(name); err == nil {
		return t, nil
	}
	if t, ok := lookupCustom(name); ok {
		return t, nil
	}
	return nil, fmt.Errorf("topology: unrecognized name %q", name)
}

// interned holds the library topologies built through ByName and
// Enumerate, keyed by canonical name, so their pair tables and min-hop
// memo outlive a single selection. Library topologies are immutable, so
// sharing one instance across sessions and goroutines is safe. The table
// stops growing at internCap names; later names are built fresh (with a
// weakly held pair table, see Pairs).
var interned struct {
	sync.Mutex
	m map[string]Topology
}

// internCap bounds the intern table (a 12-core library has about 15
// configurations, a 64-core one about 20).
const internCap = 128

// libraryTopology returns the interned library topology called name,
// building (and, below the cap, interning) it on first use.
func libraryTopology(name string) (Topology, error) {
	interned.Lock()
	t, ok := interned.m[name]
	interned.Unlock()
	if ok {
		return t, nil
	}
	t, err := byLibraryName(name)
	if err != nil {
		return nil, err
	}
	interned.Lock()
	defer interned.Unlock()
	if prev, ok := interned.m[name]; ok {
		return prev, nil
	}
	if len(interned.m) < internCap {
		if interned.m == nil {
			interned.m = make(map[string]Topology)
		}
		t.(interface{ pin(Topology) }).pin(t)
		interned.m[name] = t
	}
	return t, nil
}

// customReg holds custom (synthesized) topologies registered by name.
// Unlike the library families — reconstructible from their name alone —
// custom topologies are application-specific instances, so the registry
// stores them directly for the life of the process.
var customReg struct {
	sync.RWMutex
	m map[string]Topology
}

// Register validates a custom topology and makes it retrievable through
// ByName. Re-registering a name replaces the earlier entry; that is safe
// because the evaluation cache keys on the full structural digest, never
// on the name alone. Library-grammar names are rejected so a custom entry
// can never shadow a standard configuration.
//
// The registry is process-wide and unbounded, which is the right contract
// for the handful of synthesized candidates an interactive run names. It
// is the wrong contract for machine-generated topologies: a long-running
// serve process running topology search would leak one entry per
// discovered candidate and let two sessions silently overwrite each
// other's names. Search workloads register into a per-session Scope
// instead.
func Register(t Topology) error {
	if err := Validate(t); err != nil {
		return err
	}
	name := t.Name()
	if name == "" {
		return fmt.Errorf("topology: cannot register a topology with an empty name")
	}
	if builtin, err := byLibraryName(name); err == nil {
		return fmt.Errorf("topology: cannot register %q: name is taken by library topology %s",
			name, builtin.Name())
	}
	customReg.Lock()
	if customReg.m == nil {
		customReg.m = make(map[string]Topology)
	}
	customReg.m[name] = t
	customReg.Unlock()
	return nil
}

// Registered returns the currently registered custom topologies sorted by
// name.
func Registered() []Topology {
	customReg.RLock()
	out := make([]Topology, 0, len(customReg.m))
	for _, t := range customReg.m {
		out = append(out, t)
	}
	customReg.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Unregister removes a custom topology by name (a no-op for unknown
// names). Tests use it to keep the process-wide registry isolated.
func Unregister(name string) {
	customReg.Lock()
	delete(customReg.m, name)
	customReg.Unlock()
}

func lookupCustom(name string) (Topology, bool) {
	customReg.RLock()
	t, ok := customReg.m[name]
	customReg.RUnlock()
	return t, ok
}

// byLibraryName is ByName restricted to the library grammar (no custom
// registry fallback); Register uses it to detect name collisions.
func byLibraryName(name string) (Topology, error) {
	var a, b, c int
	switch {
	case matched(name, "mesh-%dx%d", &a, &b):
		return NewMesh(a, b)
	case matched(name, "torus-%dx%d", &a, &b):
		return NewTorus(a, b)
	case matched(name, "hypercube-%d", &a):
		return NewHypercube(a)
	case matched(name, "butterfly-%dary%dfly", &a, &b):
		return NewButterfly(a, b)
	case matched(name, "clos-m%dn%dr%d", &a, &b, &c):
		return NewClos(a, b, c)
	case name == "octagon":
		return NewOctagon()
	case matched(name, "star-%d", &a):
		return NewStar(a)
	}
	return nil, fmt.Errorf("topology: unrecognized name %q", name)
}

func matched(s, format string, args ...*int) bool {
	ptrs := make([]interface{}, len(args))
	for i, a := range args {
		ptrs[i] = a
	}
	n, err := fmt.Sscanf(s, format, ptrs...)
	if err != nil || n != len(args) {
		return false
	}
	// Sscanf tolerates trailing garbage; rebuild and compare.
	vals := make([]interface{}, len(args))
	for i, a := range args {
		vals[i] = *a
	}
	return fmt.Sprintf(format, vals...) == s
}
