package engine

import (
	"fmt"
	"path/filepath"
	"testing"

	"sunmap/internal/mapping"
)

func boundKey(i int) string { return fmt.Sprintf("key-%06d", i) }

func boundEntry(i int) entry {
	return entry{res: &mapping.Result{Assign: []int{i}, Cost: float64(i)}}
}

// TestCacheHotKeySurvivesRotations pins the two-generation bound: a key
// looked up at least once per generation is promoted back into the young
// map and survives any number of rotations, while a key never looked up
// again is evicted after two.
func TestCacheHotKeySurvivesRotations(t *testing.T) {
	c := NewCache()
	c.put("hot", boundEntry(-1))
	c.put("cold", boundEntry(-2))
	for i := 0; i < 10*cacheCap; i++ {
		c.put(boundKey(i), boundEntry(i))
		if i%(cacheCap/4) == 0 {
			if _, ok := c.get("hot", nil); !ok {
				t.Fatalf("hot key evicted after %d inserts", i+1)
			}
		}
	}
	if _, ok := c.get("cold", nil); ok {
		t.Error("cold key survived 20 rotations")
	}
	if e, ok := c.get("hot", nil); !ok || e.res.Cost != -1 {
		t.Errorf("hot key lost or altered: %+v, %v", e, ok)
	}
}

// TestCacheEntriesBounded pins the memory bound: Entries and Len count
// both generations and never exceed cacheCap, however many distinct
// evaluations arrive.
func TestCacheEntriesBounded(t *testing.T) {
	c := NewCache()
	peak := 0
	for i := 0; i < 3*cacheCap; i++ {
		c.put(boundKey(i), boundEntry(i))
		if i%3 == 0 {
			c.get(boundKey(i/2), nil) // promotions must not double-count
		}
		n := c.Stats().Entries
		if n != c.Len() {
			t.Fatalf("Stats().Entries = %d, Len() = %d", n, c.Len())
		}
		if n > cacheCap {
			t.Fatalf("cache holds %d entries after %d inserts, cap %d", n, i+1, cacheCap)
		}
		peak = max(peak, n)
	}
	if peak < cacheCap/2 {
		t.Errorf("peak %d entries: the old generation never filled", peak)
	}
}

// TestCacheSpillCoversBothGenerations spills a cache whose entries span
// the young and the old generation, and checks a fresh cache loads every
// one of them while a reload into the source cache skips them all.
func TestCacheSpillCoversBothGenerations(t *testing.T) {
	c := NewCache()
	n := cacheCap/2 + 10 // one rotation: cacheCap/2 old, 10 young
	for i := 0; i < n; i++ {
		c.put(boundKey(i), boundEntry(i))
	}
	if len(c.old) == 0 || len(c.young) == 0 {
		t.Fatalf("want both generations populated, got old %d, young %d", len(c.old), len(c.young))
	}
	path := filepath.Join(t.TempDir(), "cache.spill")
	saved, err := c.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved != n {
		t.Fatalf("saved %d entries, want %d", saved, n)
	}
	if again, err := c.LoadFile(path); err != nil || again != 0 {
		t.Errorf("reload into the source cache loaded %d (err %v), want 0", again, err)
	}

	fresh := NewCache()
	loaded, err := fresh.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("loaded %d entries, want %d", loaded, n)
	}
	for _, i := range []int{0, n - 1} { // first from old, last from young
		e, ok := fresh.get(boundKey(i), nil)
		if !ok || e.res.Cost != float64(i) {
			t.Errorf("key %d after round trip: %+v, %v", i, e, ok)
		}
	}
}
