package realm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerRecordsTasksAndMessages(t *testing.T) {
	s := MustNewSim(smallConfig(2))
	tr := NewTracer()
	s.SetTracer(tr)
	s.nodes[0].procs[0].launch(Microseconds(10))
	s.CopyBytes(0, 1, 4096, NoEvent, nil)
	s.MustRun()
	if tr.Spans() != 1 {
		t.Errorf("spans = %d, want 1", tr.Spans())
	}
	if tr.Messages() != 1 {
		t.Errorf("messages = %d, want 1", tr.Messages())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("trace events = %d", len(doc.TraceEvents))
	}
	if !strings.Contains(buf.String(), `"cat":"net"`) || !strings.Contains(buf.String(), `"cat":"task"`) {
		t.Error("trace missing categories")
	}
}

func TestTracerDetached(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	s.SetTracer(nil) // no-op
	s.nodes[0].procs[0].launch(Microseconds(1))
	s.MustRun() // must not panic
}
