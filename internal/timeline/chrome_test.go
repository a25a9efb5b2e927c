package timeline

import (
	"bytes"
	"encoding/json"
	"testing"

	"nextgenmalloc/internal/sim"
)

// testSeries builds a tiny two-sample, two-core series with ring and
// server gauges.
func testSeries() *Series {
	mk := func(cycle, instr, llc uint64) Sample {
		cores := make([]CoreSample, 2)
		for c := range cores {
			cores[c].Counters = sim.Counters{
				Cycles: cycle, Instructions: instr, Loads: instr,
				LLCLoadMisses: llc,
			}
		}
		return Sample{
			Cycle: cycle, Cores: cores,
			Rings:  RingState{MallocDepth: 1, FreeDepth: 2},
			Server: ServerState{BusyCycles: cycle / 2, IdleCycles: cycle / 2},
		}
	}
	return &Series{Interval: 100, Samples: []Sample{mk(100, 50, 5), mk(200, 120, 9)}}
}

func TestWriteChromeTraceIsValidTraceEventJSON(t *testing.T) {
	rec := NewLatencyRecorder(0)
	rec.Record(OpMalloc, 1, 110, 130, 170)
	rec.Record(OpFree, 2, 150, 150, 150) // zero-duration span must still emit dur >= 1

	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []TraceRun{{
		Name: "test/run", Series: testSeries(), Latency: rec, ServerCore: 1,
	}})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d lacks ph: %v", i, ev)
		}
		phases[ph]++
		for _, field := range []string{"pid", "tid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d lacks %s: %v", i, field, ev)
			}
		}
		if ph != "M" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d lacks numeric ts: %v", i, ev)
			}
		}
		if ph == "X" {
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 1 {
				t.Fatalf("X event %d needs dur >= 1: %v", i, ev)
			}
		}
	}
	// Metadata, counter, and span events must all be present.
	for _, ph := range []string{"M", "C", "X"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events emitted (got %v)", ph, phases)
		}
	}
	if phases["X"] != 2 {
		t.Errorf("want 2 span events, got %d", phases["X"])
	}
}

func TestWriteChromeTraceNoSpans(t *testing.T) {
	// A counter-only trace (non-offload run) must still be valid JSON
	// with counter events and no X events.
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []TraceRun{{
		Name: "inline/run", Series: testSeries(), Latency: NewLatencyRecorder(0), ServerCore: -1,
	}})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	hasC, hasX := false, false
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "C":
			hasC = true
		case "X":
			hasX = true
		}
	}
	if !hasC {
		t.Error("counter-only trace has no C events")
	}
	if hasX {
		t.Error("spanless trace emitted X events")
	}
}

func TestWriteChromeTraceEmptyRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
}

func TestWriteChromeTraceTenantTracks(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []TraceRun{{
		Name: "slo/run", Series: testSeries(), Latency: NewLatencyRecorder(0), ServerCore: -1,
		Tenants: []TenantSpan{
			{Tenant: 0, Class: "interactive", Arrival: 100, Start: 120, Complete: 300, Violated: true},
			{Tenant: 2, Class: "bulk", Arrival: 150, Start: 150, Complete: 150}, // zero-duration: dur >= 1
			{Tenant: 0, Class: "interactive", Arrival: 400, Start: 410, Complete: 500},
		},
	}})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	tracks := map[float64]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				if name, _ := args["name"].(string); len(name) >= 6 && name[:6] == "tenant" {
					tracks[ev["tid"].(float64)] = true
				}
			}
		}
		if ev["cat"] == "slo" {
			spans++
			tid := ev["tid"].(float64)
			if tid < float64(tenantTidBase) {
				t.Errorf("slo span tid %v below tenant track base", tid)
			}
			if dur := ev["dur"].(float64); dur < 1 {
				t.Errorf("slo span dur %v < 1", dur)
			}
			args := ev["args"].(map[string]any)
			for _, k := range []string{"queue_wait", "service", "violated"} {
				if _, ok := args[k]; !ok {
					t.Errorf("slo span missing arg %s: %v", k, args)
				}
			}
		}
	}
	if spans != 3 {
		t.Errorf("want 3 tenant spans, got %d", spans)
	}
	// One viewer track per distinct tenant (0 and 2), not per span.
	if len(tracks) != 2 {
		t.Errorf("want 2 tenant thread_name tracks, got %d", len(tracks))
	}
}
