package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (in-program spans are a later change). Spans of one
// cell share Cell; Parent is the index of the span that was open when this
// one began (-1 at top level).
type span struct {
	Name   string
	Cell   int
	Nodes  int
	Parent int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory; the driver writes them out when the run
// ends. A nil *tracer records nothing, so the untraced passes run the same
// cell code with no tracing cost. All spans are opened and closed on the
// single driver goroutine, so a stack gives the parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	cell  int
	nodes int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// inCell sets the cell identity the following spans carry.
func (t *tracer) inCell(cell int) {
	if t != nil {
		t.cell, t.nodes = cell, 0
	}
}

// at sets the node count the following spans carry.
func (t *tracer) at(nodes int) {
	if t != nil {
		t.nodes = nodes
	}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Nodes: t.nodes, Parent: parent, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = time.Since(t.t0)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// topLevel sums the durations of the spans that have no parent: the part
// of a pass the layer spans account for.
func (t *tracer) topLevel() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTimes returns, per span name, the time spent in spans of that name
// minus the part their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// chromeEvent is the Trace Event Format record cmd/trace also emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args,omitempty"`
}

// writeChrome writes the spans as complete ("X") events, one track per
// layer (the part of the name before the dot), so Perfetto shows which
// layer held the driver at each moment.
func (t *tracer) writeChrome(w io.Writer) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		layer := s.Name
		for i := 0; i < len(layer); i++ {
			if layer[i] == '.' {
				layer = layer[:i]
				break
			}
		}
		tid, ok := tids[layer]
		if !ok {
			tid = len(tids) + 1
			tids[layer] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]int{"cell": s.Cell, "nodes": s.Nodes, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
