package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"sunmap"
	"sunmap/internal/apps"
)

// band is a uniform bandwidth profile in MB/s.
type band struct{ lo, hi float64 }

func (b band) draw(rng *rand.Rand) float64 { return b.lo + (b.hi-b.lo)*rng.Float64() }

// Flow profiles of generated applications: every backbone pair gets the
// default streaming profile, a few pairs are overridden with a heavy
// profile, and the remaining traffic is light background chatter.
var (
	backboneMBps   = band{100, 300}
	heavyMBps      = band{400, 700}
	backgroundMBps = band{10, 60}
)

// backboneWindow bounds how far back a core's stream source may sit,
// giving pipelines with short forks and joins.
const backboneWindow = 4

// streamSeed derives the generator seed of one input from the workload
// seed, the stream name and the input index, so every input is a pure
// function of (seed, stream, index).
func streamSeed(seed int64, stream string, i int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, stream, i)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

// genApp builds an n-core application as inline cores and flows. Core
// areas are drawn in [1, 4) mm². Flows have three shapes: a streaming
// backbone (each core fed by one of the few cores before it), heavy
// overrides on about n/8 random pairs, and about n light background
// flows on pairs that carry nothing yet.
func genApp(seed int64, n int, label string) sunmap.AppSpec {
	rng := rand.New(rand.NewSource(seed))
	app := sunmap.AppSpec{Label: label}
	name := func(i int) string { return fmt.Sprintf("c%d", i) }
	for i := 0; i < n; i++ {
		app.Cores = append(app.Cores, sunmap.CoreSpec{Name: name(i), AreaMM2: 1 + 3*rng.Float64()})
	}
	type pair struct{ from, to int }
	mbps := map[pair]float64{}
	var order []pair
	set := func(p pair, v float64) {
		if _, ok := mbps[p]; !ok {
			order = append(order, p)
		}
		mbps[p] = v
	}
	randomPair := func() pair {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		return pair{a, b}
	}
	for i := 1; i < n; i++ {
		set(pair{i - 1 - rng.Intn(min(i, backboneWindow)), i}, backboneMBps.draw(rng))
	}
	for k := 0; k < max(1, n/8); k++ {
		set(randomPair(), heavyMBps.draw(rng))
	}
	for k := 0; k < n; k++ {
		if p := randomPair(); mbps[p] == 0 {
			set(p, backgroundMBps.draw(rng))
		}
	}
	for _, p := range order {
		app.Flows = append(app.Flows, sunmap.FlowSpec{From: name(p.from), To: name(p.to), MBps: mbps[p]})
	}
	return app
}

// scaledPaperApp returns a built-in application as inline cores and
// flows; with perturb set, each flow's bandwidth is scaled by its own
// factor drawn in [0.8, 1.2] from seed.
func scaledPaperApp(name string, seed int64, perturb bool) (sunmap.AppSpec, error) {
	g, err := apps.ByName(name)
	if err != nil {
		return sunmap.AppSpec{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	app := sunmap.AppSpec{Label: g.Name()}
	for _, c := range g.Cores() {
		app.Cores = append(app.Cores, sunmap.CoreSpec{
			Name: c.Name, AreaMM2: c.AreaMM2, Soft: c.Soft, MinAspect: c.MinAspect, MaxAspect: c.MaxAspect,
		})
	}
	for _, e := range g.Edges() {
		v := e.BandwidthMBps
		if perturb {
			v *= 0.8 + 0.4*rng.Float64()
		}
		app.Flows = append(app.Flows, sunmap.FlowSpec{From: g.Core(e.From).Name, To: g.Core(e.To).Name, MBps: v})
	}
	return app, nil
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // inputs and reports are plain data
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
