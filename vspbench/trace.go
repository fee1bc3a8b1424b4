package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or solve share
// Req; Parent is the ID of the span that made the call, or -1.
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the part of a span name before the first dot: "ivs.file" and
// "ivs.phase1" are both IVS work.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of it that
// child spans of other layers cover, overlapping children counted once.
// Children of the same layer are that layer's own work and stay in.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range kids[s.ID] {
			if layer(c.Name) == layer(s.Name) {
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[i] = s.dur() - covered(ivs)
	}
	return out
}

// covered is the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	lo, hi := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > hi {
			total += hi - lo
			lo, hi = iv[0], iv[1]
		} else if iv[1] > hi {
			hi = iv[1]
		}
	}
	return total + hi - lo
}

// layerSelf sums, per layer, the self time of the layer's outermost spans
// (those not called from the same layer), in milliseconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if p, ok := byID[s.Parent]; ok && layer(p.Name) == layer(s.Name) {
			continue
		}
		out[layer(s.Name)] += float64(self[i]) / 1e6
	}
	return out
}

// durations returns the durations in milliseconds of spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
