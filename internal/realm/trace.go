package realm

import (
	"encoding/json"
	"fmt"
	"io"
)

// Tracer records the simulation's execution timeline — task spans per
// processor and message transfers — for visualization in Chrome's
// about:tracing or Perfetto, beside the node crashes its Sim logs. Attach
// with Sim.SetTracer before Run.
type Tracer struct {
	sim   *Sim
	spans []traceSpan
	flows []traceFlow
}

type traceSpan struct {
	name       string
	node, proc int
	start, end Time
}

type traceFlow struct {
	src, dst   int
	bytes      int64
	start, end Time
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetTracer attaches a tracer to the simulation (nil detaches) and binds it
// to the simulation's crash log.
func (s *Sim) SetTracer(t *Tracer) {
	s.tracer = t
	if t != nil {
		t.sim = s
	}
}

func (t *Tracer) task(node, proc int, start, end Time) {
	t.spans = append(t.spans, traceSpan{name: "task", node: node, proc: proc, start: start, end: end})
}

func (t *Tracer) message(src, dst int, bytes int64, start, end Time) {
	t.flows = append(t.flows, traceFlow{src: src, dst: dst, bytes: bytes, start: start, end: end})
}

// Spans returns the number of recorded task spans.
func (t *Tracer) Spans() int { return len(t.spans) }

// Crashes returns the number of node crashes the tracer's Sim logged.
func (t *Tracer) Crashes() int { return len(t.sim.crashLog) }

// Messages returns the number of recorded transfers.
func (t *Tracer) Messages() int { return len(t.flows) }

// chromeEvent is the Trace Event Format record.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace emits the timeline in Chrome Trace Event Format:
// one "pid" per node, one "tid" per processor, complete ("X") events for
// task spans and for transfers (on a synthetic network lane, tid -1).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.spans)+len(t.flows))
	for _, sp := range t.spans {
		events = append(events, chromeEvent{
			Name: sp.name, Cat: "task", Ph: "X",
			Ts: sp.start.Microseconds(), Dur: sp.end.Microseconds() - sp.start.Microseconds(),
			Pid: sp.node, Tid: sp.proc,
		})
	}
	for _, fl := range t.flows {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("msg->%d", fl.dst), Cat: "net", Ph: "X",
			Ts: fl.start.Microseconds(), Dur: fl.end.Microseconds() - fl.start.Microseconds(),
			Pid: fl.src, Tid: -1,
			Args: map[string]string{"bytes": fmt.Sprint(fl.bytes), "dst": fmt.Sprint(fl.dst)},
		})
	}
	for _, cr := range t.sim.crashLog {
		events = append(events, chromeEvent{
			Name: "crash", Cat: "fault", Ph: "i",
			Ts:  cr.At.Microseconds(),
			Pid: cr.Node, Tid: -1,
			Args: map[string]string{"s": "p"},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": events})
}
