package core

import (
	"reflect"
	"testing"

	"sunmap/internal/topology"
)

// libraryFilled sums the filled pair-table entries of the default
// library for n cores — the interned instances Select maps onto.
func libraryFilled(t *testing.T, n int) int {
	t.Helper()
	lib, err := topology.Library(n, topology.LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	filled := 0
	for _, topo := range lib {
		filled += topology.Pairs(topo).Filled()
	}
	return filled
}

// TestSecondSelectFillsNoPairEntries pins the interning of library
// topologies: the pair tables an escalated MPEG4 selection fills survive
// on the interned instances, so a second identical selection — with no
// evaluation cache, so every candidate is mapped again — fills no new
// entry and reproduces the first selection.
func TestSecondSelectFillsNoPairEntries(t *testing.T) {
	first, err := Select(mpeg4EscalationConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	filled := libraryFilled(t, 12)
	if filled == 0 {
		t.Fatal("the first selection filled no pair-table entries")
	}
	second, err := Select(mpeg4EscalationConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if again := libraryFilled(t, 12); again != filled {
		t.Errorf("second identical selection filled %d new pair entries", again-filled)
	}
	sameSelection(t, second, first)
	if !reflect.DeepEqual(second.Summaries(), first.Summaries()) {
		t.Error("second selection's summary table differs")
	}
}

// TestParallelSelectSharesOneTable maps one fresh (non-interned)
// topology as four library entries at parallelism 4, so several engine
// workers fill its single pair table at once through both routing rungs
// (run under -race). The selection must match the sequential one on a
// separately built instance.
func TestParallelSelectSharesOneTable(t *testing.T) {
	cfg := func(par int) Config {
		topo, err := topology.NewMesh(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		c := mpeg4EscalationConfig(par)
		c.Library = []topology.Topology{topo, topo, topo, topo}
		return c
	}
	seq, err := Select(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Select(cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, par, seq)
	if !reflect.DeepEqual(par.Summaries(), seq.Summaries()) {
		t.Error("parallel summary table differs from sequential")
	}
}
