package report

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/timeline"
)

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty values gave %q", got)
	}
	if got := Sparkline([]float64{1, 2}, 0); got != "" {
		t.Errorf("zero width gave %q", got)
	}
	flat := Sparkline([]float64{0, 0, 0}, 3)
	if flat != "   " {
		t.Errorf("all-zero series gave %q, want three blanks", flat)
	}
	ramp := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10)
	if len([]rune(ramp)) != 10 {
		t.Fatalf("width not respected: %q", ramp)
	}
	if ramp[0] != ' ' || ramp[9] != '@' {
		t.Errorf("ramp endpoints wrong: %q", ramp)
	}
	// Any strictly positive value must render visibly even when tiny
	// relative to the max.
	tiny := Sparkline([]float64{0.001, 100}, 2)
	if tiny[0] == ' ' {
		t.Errorf("positive value rendered as blank: %q", tiny)
	}
	// More samples than columns: bucket averages, still full width.
	squeezed := Sparkline(make([]float64, 1000), 8)
	if len([]rune(squeezed)) != 8 {
		t.Errorf("squeeze broke width: %q", squeezed)
	}
}

func timelineSeries(serverBusy bool) *timeline.Series {
	s := &timeline.Series{Interval: 100}
	for i := uint64(1); i <= 6; i++ {
		cores := make([]timeline.CoreSample, 3)
		for c := range cores {
			cores[c].Counters = sim.Counters{
				Cycles:        i * 100,
				Instructions:  i * 1000,
				Loads:         i * 400,
				Stores:        i * 200,
				LLCLoadMisses: i * 9,
				DTLBLoadMisses: i,
			}
		}
		smp := timeline.Sample{Cycle: i * 100, Cores: cores}
		if serverBusy {
			smp.Rings = timeline.RingState{MallocDepth: i, FreeDepth: i * 2}
			smp.Server = timeline.ServerState{BusyCycles: i * 60, IdleCycles: i * 40}
		}
		s.Samples = append(s.Samples, smp)
	}
	return s
}

func TestTimelineTableShape(t *testing.T) {
	out := TimelineTable("tl", timelineSeries(true), 2)
	for _, want := range []string{
		"tl", "6 samples", "interval 100 cycles", "span [100, 600]",
		"instructions", "LLC-load-MPKI", "LLC-store-MPKI",
		"dTLB-load-MPKI", "dTLB-store-MPKI",
		"malloc ring depth", "free ring depth", "server busy %",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline table missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineTableNoServer(t *testing.T) {
	out := TimelineTable("tl", timelineSeries(false), -1)
	for _, absent := range []string{"ring depth", "server busy"} {
		if strings.Contains(out, absent) {
			t.Errorf("serverless table should omit %q:\n%s", absent, out)
		}
	}
	if !strings.Contains(out, "instructions") {
		t.Errorf("counter rows missing:\n%s", out)
	}
}

func TestTimelineTableDegenerate(t *testing.T) {
	if out := TimelineTable("tl", nil, -1); !strings.Contains(out, "no samples") {
		t.Errorf("nil series: %q", out)
	}
	one := &timeline.Series{Interval: 5, Samples: []timeline.Sample{{Cycle: 5}}}
	if out := TimelineTable("tl", one, -1); !strings.Contains(out, "no samples") {
		t.Errorf("single sample needs two points for a delta: %q", out)
	}
}

func TestLatencyTable(t *testing.T) {
	rec := timeline.NewLatencyRecorder(0)
	for i := uint64(0); i < 100; i++ {
		rec.Record(timeline.OpMalloc, 1, i*10, i*10+3, i*10+8)
		rec.Record(timeline.OpFree, 2, i*10, i*10+6, i*10+7)
	}
	out := LatencyTable("lat", rec)
	for _, want := range []string{
		"lat", "op / phase", "count", "p50", "p99", "max",
		"malloc queue-wait", "malloc service", "malloc end-to-end",
		"free queue-wait",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("latency table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "retention cap") {
		t.Errorf("no drops occurred, footnote should be absent:\n%s", out)
	}
	mallocOnly := timeline.NewLatencyRecorder(0)
	mallocOnly.Record(timeline.OpMalloc, 1, 0, 3, 8)
	if out := LatencyTable("lat", mallocOnly); strings.Contains(out, "free") {
		t.Errorf("zero-count op should be skipped:\n%s", out)
	}
}

func TestLatencyTableEmptyAndDropped(t *testing.T) {
	if out := LatencyTable("lat", nil); !strings.Contains(out, "no offload spans") {
		t.Errorf("nil recorder: %q", out)
	}
	if out := LatencyTable("lat", timeline.NewLatencyRecorder(0)); !strings.Contains(out, "no offload spans") {
		t.Errorf("empty recorder: %q", out)
	}
	rec := timeline.NewLatencyRecorder(2)
	for i := uint64(0); i < 5; i++ {
		rec.Record(timeline.OpFree, 0, i, i+1, i+2)
	}
	if out := LatencyTable("lat", rec); !strings.Contains(out, "3 spans beyond the retention cap") {
		t.Errorf("drop footnote missing:\n%s", out)
	}
}
