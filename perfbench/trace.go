package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one sample step (or one client
// request) share a trace ID; Parent is the enclosing span's ID (0 = root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   int     `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) seconds() float64 { return (s.EndUS - s.StartUS) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced passes run the same code.
type tracer struct {
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) nowUS() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// newTrace returns a fresh trace ID.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.traces++
	return t.traces
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, StartUS: t.nowUS()})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndUS = t.nowUS()
}

// durations returns the wall seconds of every span named name.
func (t *tracer) durations(name string) timing {
	var out timing
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// sum returns the total wall seconds of the spans named name.
func (t *tracer) sum(name string) float64 {
	total := 0.0
	for _, d := range t.durations(name) {
		total += d
	}
	return total
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += s.seconds() - coveredUS(s, children[s.ID])/1e6
	}
	return out
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	covered, reach := 0.0, parent.StartUS
	for _, k := range kids {
		lo, hi := k.StartUS, k.EndUS
		if lo < reach {
			lo = reach
		}
		if hi > parent.EndUS {
			hi = parent.EndUS
		}
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return covered
}
