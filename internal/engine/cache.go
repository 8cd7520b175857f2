package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/topology"
)

// Process-wide cache-effectiveness counters, mirroring the per-Cache
// CacheStats snapshot so /metrics can show hit rates without reaching
// into any particular session's cache. "spill" counts lookups served by
// promoting a disk-loaded record (a subset of "hit").
var (
	cacheLookups   = obs.Default.CounterVec("sunmap_evalcache_lookups_total", "evaluation-cache lookups by outcome", "outcome")
	cacheHitCount  = cacheLookups.With("hit")
	cacheMissCount = cacheLookups.With("miss")
	cacheSpillHits = cacheLookups.With("spill")
)

// Key content-addresses one evaluation: the application digest, the
// topology (name plus structural digest) and the canonicalized mapping
// options fully determine a Map result, so equal keys may share one
// cached Result.
func Key(appDigest string, topo topology.Topology, opts mapping.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s", appDigest, topo.Name(), topoDigest(topo), opts.CacheKey())
	return hex.EncodeToString(h.Sum(nil))
}

// topoDigest hashes the structure the mapper observes — terminals,
// routers, links, terminal attachment and placement — so two topologies
// that happen to share a Name() (e.g. custom library entries) cannot
// collide onto one cache entry.
func topoDigest(t topology.Topology) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d\n", int(t.Kind()), t.NumTerminals(), t.NumRouters())
	for _, l := range t.Links() {
		fmt.Fprintf(h, "l%d:%d>%d\n", l.ID, l.From, l.To)
	}
	for term := 0; term < t.NumTerminals(); term++ {
		x, y := t.TerminalPosition(term)
		fmt.Fprintf(h, "t%d:%d,%d,%g,%g\n", term, t.InjectRouter(term), t.EjectRouter(term), x, y)
	}
	for r := 0; r < t.NumRouters(); r++ {
		x, y := t.Position(r)
		fmt.Fprintf(h, "r%d:%g,%g\n", r, x, y)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one memoized evaluation. Hard mapping failures (structural
// mismatches such as too few terminals) are deterministic, so they are
// cached alongside successes.
type entry struct {
	res *mapping.Result
	err error
}

// cacheCap bounds the number of memoized evaluations a Cache holds in
// memory (see Cache).
const cacheCap = 4096

// Cache is a concurrency-safe, content-addressed memo of mapping
// evaluations shared across Phase-1 sweeps, routing escalation, routing
// sweeps and Pareto exploration. Cached Results are shared pointers and
// must be treated as immutable by all consumers.
//
// Memory is bounded by two generations: new entries land in young, and
// when young reaches half of cacheCap it becomes old and a fresh young
// starts, dropping the previous old generation. A hit in old promotes
// the entry back into young, so an entry used at least once per
// generation survives any number of rotations, and at most cacheCap
// entries are ever held.
type Cache struct {
	mu           sync.RWMutex
	young, old   map[string]entry
	hits, misses uint64
	// spill is the lazy disk-loaded tier (see spill.go): raw spill-file
	// records decoded and promoted into young only when a lookup hits
	// their key. spillHits counts promotions.
	spill     map[string][]byte
	spillHits uint64
}

// NewCache returns an empty evaluation cache.
func NewCache() *Cache {
	return &Cache{young: make(map[string]entry)}
}

// get returns the memoized evaluation and bumps the hit/miss counters.
// topo is the live topology the caller is about to evaluate: a miss in
// memory falls through to the spill tier, whose stored result is
// rehydrated with topo (sound because the key content-addresses the
// topology's structure — see spill.go) and promoted into memory.
func (c *Cache) get(key string, topo topology.Topology) (entry, bool) {
	if c == nil {
		return entry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.young[key]
	if !ok {
		if e, ok = c.old[key]; ok {
			c.add(key, e)
		} else if raw, spilled := c.spill[key]; spilled {
			delete(c.spill, key)
			var s spillResult
			if err := json.Unmarshal(raw, &s); err == nil {
				e, ok = entry{res: s.toResult(topo)}, true
				c.add(key, e)
				c.spillHits++
				cacheSpillHits.Inc()
			}
		}
	}
	if ok {
		c.hits++
		cacheHitCount.Inc()
	} else {
		c.misses++
		cacheMissCount.Inc()
	}
	return e, ok
}

// put memoizes one evaluation.
func (c *Cache) put(key string, e entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.add(key, e)
	c.mu.Unlock()
}

// add stores e in the young generation, rotating generations when young
// is full. The key leaves old, so no key is ever held twice. Callers
// hold mu.
func (c *Cache) add(key string, e entry) {
	delete(c.old, key)
	c.young[key] = e
	if len(c.young) >= cacheCap/2 {
		c.old, c.young = c.young, make(map[string]entry)
	}
}

// CacheStats snapshots cache effectiveness. The JSON names are part of
// the serve layer's wire schema (BatchResponse.cache).
type CacheStats struct {
	// Hits and Misses count lookups since creation.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the number of memoized evaluations held in memory
	// (both generations).
	Entries int `json:"entries"`
	// SpillEntries is the number of disk-loaded records not yet promoted
	// into memory; SpillHits counts lookups served by promoting one.
	SpillEntries int    `json:"spill_entries,omitempty"`
	SpillHits    uint64 `json:"spill_hits,omitempty"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.young) + len(c.old),
		SpillEntries: len(c.spill), SpillHits: c.spillHits,
	}
}

// Len returns the number of memoized evaluations.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.young) + len(c.old)
}
