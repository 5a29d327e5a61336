package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer's public function, recorded by
// the benchmark around the call (nothing inside the program is
// instrumented). Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: Begin and End do nothing, so untraced and traced runs
// execute the same calls in the same order.
type Tracer struct {
	run   string
	spans []Span
}

// NewTracer returns a tracer whose spans carry the given run id. The
// capacity hint lets per-sample spans be recorded without growing the
// slice inside a timed loop.
func NewTracer(run string, capHint int) *Tracer {
	return &Tracer{run: run, spans: make([]Span, 0, capHint)}
}

// Begin opens a span under parent and returns its id (0 when untraced).
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Now().UnixNano()})
	return id
}

// End closes the span with the given id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Now().UnixNano()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other (parallel calls), so the covered part is the length of the union
// of their intervals, clipped to the parent's.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the spans' intervals
// within [lo, hi].
func covered(lo, hi int64, spans []Span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanTotal is the aggregate of every span sharing one name.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize totals duration and self time per span name, in order of
// first appearance.
func summarize(spans []Span) []spanTotal {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []spanTotal
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalS += float64(s.Dur()) / 1e9
		out[i].SelfS += float64(self[s.ID]) / 1e9
	}
	return out
}
