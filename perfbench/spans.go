package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one op share Op; Parent is the ID of the enclosing
// span, 0 at an op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps spans in memory until the run writes them out.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r      *spanRecorder
	id     int
	parent int
	op     int
	name   string
	start  time.Time
}

// start opens a span named name under parent (0 for an op root). The ID
// is reserved at start so children can name their parent before it ends.
func (r *spanRecorder) start(op, parent int, name string) *openSpan {
	r.mu.Lock()
	r.spans = append(r.spans, span{}) // reserve the slot; end fills it
	id := len(r.spans)
	r.mu.Unlock()
	return &openSpan{r: r, id: id, parent: parent, op: op, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (s *openSpan) end() time.Duration {
	end := time.Now()
	r := s.r
	r.mu.Lock()
	r.spans[s.id-1] = span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	}
	r.mu.Unlock()
	return end.Sub(s.start)
}

// all returns a copy of the recorded spans.
func (r *spanRecorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that the union of its children covers.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of parent's interval that the union of the
// child intervals covers; overlapping children count once.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// unattributedFrac is the share of the time of root spans named root
// that no child span covers.
func unattributedFrac(spans []span, root string) float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, bare time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			total += s.dur()
			bare += s.dur() - covered(s, children[s.ID])
		}
	}
	return ratio(float64(bare), float64(total))
}

// writeSpans writes the header line and then one JSON span per line.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for _, s := range spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
