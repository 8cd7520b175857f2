package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sunmap/internal/area"
	"sunmap/internal/floorplan"
	"sunmap/internal/mapping"
	"sunmap/internal/power"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// This file gives the content-addressed eval cache a disk form, so a
// restarted server is warm: SaveFile writes every successful evaluation
// as one JSON line, LoadFile brings them back as raw bytes that are
// decoded lazily — only when a lookup actually hits the key — and then
// promoted into memory.
//
// A mapping.Result cannot round-trip whole because its Topology field is
// an interface whose concrete kind participates in the cache key. The
// spill therefore stores everything *but* the topology, and rehydrates
// it at lookup time from the live Topology the engine is about to
// evaluate: the key content-addresses (app digest, topology structure,
// options), so a spill hit under a key proves the caller's topology is
// structurally identical to the one that produced the entry.

// spillResult is mapping.Result minus the Topology interface.
type spillResult struct {
	Assign         []int               `json:"assign"`
	Route          *route.Result       `json:"route"`
	SwitchConfigs  []area.SwitchConfig `json:"switch_configs"`
	Floorplan      *floorplan.Result   `json:"floorplan"`
	DesignAreaMM2  float64             `json:"design_area_mm2"`
	ChipAreaMM2    float64             `json:"chip_area_mm2"`
	NetworkAreaMM2 float64             `json:"network_area_mm2"`
	PowerMW        float64             `json:"power_mw"`
	PowerBreakdown power.Breakdown     `json:"power_breakdown"`
	AvgHops        float64             `json:"avg_hops"`
	Cost           float64             `json:"cost"`
	BandwidthOK    bool                `json:"bandwidth_ok"`
	AreaOK         bool                `json:"area_ok"`
	AspectOK       bool                `json:"aspect_ok"`
	SwapsApplied   int                 `json:"swaps_applied"`
}

// spillLine is one record of the spill file.
type spillLine struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

func toSpill(r *mapping.Result) spillResult {
	return spillResult{
		Assign:         r.Assign,
		Route:          r.Route,
		SwitchConfigs:  r.SwitchConfigs,
		Floorplan:      r.Floorplan,
		DesignAreaMM2:  r.DesignAreaMM2,
		ChipAreaMM2:    r.ChipAreaMM2,
		NetworkAreaMM2: r.NetworkAreaMM2,
		PowerMW:        r.PowerMW,
		PowerBreakdown: r.PowerBreakdown,
		AvgHops:        r.AvgHops,
		Cost:           r.Cost,
		BandwidthOK:    r.BandwidthOK,
		AreaOK:         r.AreaOK,
		AspectOK:       r.AspectOK,
		SwapsApplied:   r.SwapsApplied,
	}
}

func (s spillResult) toResult(topo topology.Topology) *mapping.Result {
	return &mapping.Result{
		Topology:       topo,
		Assign:         s.Assign,
		Route:          s.Route,
		SwitchConfigs:  s.SwitchConfigs,
		Floorplan:      s.Floorplan,
		DesignAreaMM2:  s.DesignAreaMM2,
		ChipAreaMM2:    s.ChipAreaMM2,
		NetworkAreaMM2: s.NetworkAreaMM2,
		PowerMW:        s.PowerMW,
		PowerBreakdown: s.PowerBreakdown,
		AvgHops:        s.AvgHops,
		Cost:           s.Cost,
		BandwidthOK:    s.BandwidthOK,
		AreaOK:         s.AreaOK,
		AspectOK:       s.AspectOK,
		SwapsApplied:   s.SwapsApplied,
	}
}

// SaveFile writes the cache's successful evaluations — both in-memory
// generations plus unpromoted spill records — to path as JSON lines,
// sorted by key, atomically (temp file + rename in path's directory).
// Entries the generation bound has already evicted are not spilled.
// Error entries are deterministic and cheap to rediscover, so they are
// not spilled either; entries whose result cannot be marshaled (e.g. a
// non-finite float) are skipped. It returns the number of entries
// written.
func (c *Cache) SaveFile(path string) (int, error) {
	if c == nil {
		return 0, nil
	}
	c.mu.RLock()
	lines := make(map[string][]byte, len(c.young)+len(c.old)+len(c.spill))
	// Unpromoted spill entries survive a save/load cycle unchanged.
	for k, raw := range c.spill {
		lines[k] = raw
	}
	for _, gen := range []map[string]entry{c.old, c.young} {
		for k, e := range gen {
			if e.err != nil || e.res == nil {
				continue
			}
			raw, err := json.Marshal(toSpill(e.res))
			if err != nil {
				continue
			}
			lines[k] = raw
		}
	}
	c.mu.RUnlock()

	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return 0, fmt.Errorf("engine: saving cache spill: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for _, k := range keys {
		if err := enc.Encode(spillLine{Key: k, Result: lines[k]}); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("engine: saving cache spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("engine: saving cache spill: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("engine: saving cache spill: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("engine: saving cache spill: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("engine: saving cache spill: %w", err)
	}
	return len(keys), nil
}

// LoadFile merges a spill file into the cache's lazy tier. Entries stay
// raw bytes until a lookup hits their key, so loading a large spill is
// cheap regardless of how much of it this process will use. A missing
// file is not an error (a cold start is a valid warm start); a corrupt
// line ends the load, keeping every entry read before it. Keys already
// in memory are left alone. It returns the number of entries loaded.
func (c *Cache) LoadFile(path string) (int, error) {
	if c == nil {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("engine: loading cache spill: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	loaded := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill == nil {
		c.spill = make(map[string][]byte)
	}
	for sc.Scan() {
		var ln spillLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil || ln.Key == "" || len(ln.Result) == 0 {
			break // corrupt tail: keep what loaded cleanly
		}
		if _, ok := c.young[ln.Key]; ok {
			continue
		}
		if _, ok := c.old[ln.Key]; ok {
			continue
		}
		c.spill[ln.Key] = append([]byte(nil), ln.Result...)
		loaded++
	}
	return loaded, nil
}
