package report

import (
	"regexp"
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
)

func TestSci(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{1.177e12, "1.177E+12"},
		{0, "0"},
		{42, "4.200E+01"},
	} {
		if got := Sci(tc.v); got != tc.want {
			t.Errorf("Sci(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table("T", []string{"a", "bb"}, [][]string{{"x", "1"}, {"longer", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "T" {
		t.Errorf("title line = %q", lines[0])
	}
	if len(lines[2]) != len(lines[3]) && !strings.HasPrefix(lines[1], "a") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestCounterTable(t *testing.T) {
	r := harness.Result{
		Allocator: "x",
		Total: sim.Counters{
			Cycles: 1000, Instructions: 2000,
			LLCLoadMisses: 10, DTLBLoadMisses: 4,
		},
	}
	out := CounterTable("title", []harness.Result{r})
	for _, want := range []string{"cycles", "dTLB-load-misses", "1.000E+03", "LLC-load-MPKI", "5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBarsNormalized(t *testing.T) {
	out := Bars("F", []string{"a", "b"}, []float64{200, 100})
	if !strings.Contains(out, "2.000x") || !strings.Contains(out, "1.000x") {
		t.Errorf("bars not normalized:\n%s", out)
	}
}

func TestBarsEmptyValues(t *testing.T) {
	out := Bars("empty", nil, nil)
	if !strings.Contains(out, "empty") || !strings.Contains(out, "no data") {
		t.Errorf("empty Bars output unexpected:\n%s", out)
	}
}

func TestBarsZeroMinimum(t *testing.T) {
	out := Bars("F", []string{"a", "b", "c"}, []float64{0, 100, 200})
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("Bars emitted NaN/Inf with a zero value:\n%s", out)
	}
	// The smallest positive value is the 1.00x baseline.
	if !strings.Contains(out, "1.000x") || !strings.Contains(out, "2.000x") || !strings.Contains(out, "0.000x") {
		t.Errorf("Bars not normalized against smallest positive value:\n%s", out)
	}
}

func TestBarsAllZero(t *testing.T) {
	out := Bars("F", []string{"a"}, []float64{0})
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("all-zero Bars emitted NaN/Inf:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	// Rows longer than the header must not panic and must render every cell.
	out := Table("T", []string{"a"}, [][]string{{"x"}, {"y", "extra", "more"}})
	for _, want := range []string{"x", "extra", "more"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in ragged table:\n%s", want, out)
		}
	}
	// Empty row set renders header only.
	out = Table("T", []string{"a", "b"}, nil)
	if !strings.Contains(out, "a") {
		t.Errorf("header missing from empty table:\n%s", out)
	}
}

func TestTransportTable(t *testing.T) {
	offload := harness.Result{
		Allocator: "nextgen",
		Offload: &harness.OffloadTelemetry{
			MallocRing:            ring.Stats{Pushes: 100, Pops: 100, PushBatches: 100},
			FreeRing:              ring.Stats{Pushes: 400, Pops: 400, PushBatches: 100, StallCycles: 50},
			ServerBusyCycles:      5000,
			ServerIdleCycles:      2000,
			ServerEmptyPolls:      7,
			ServerEmptyPollCycles: 300,
		},
	}
	offload.AllocStats.MallocCalls = 600
	offload.AllocStats.FreeCalls = 400
	inline := harness.Result{Allocator: "mimalloc"} // no Offload: renders "-"
	// A resilient run whose retried pushes outnumber its malloc calls
	// must read 0 stash hits, not 2^64-2.
	retried := harness.Result{
		Allocator: "nextgen",
		Offload:   &harness.OffloadTelemetry{MallocRing: ring.Stats{Pushes: 602, Pops: 602, PushBatches: 602}},
	}
	retried.AllocStats.MallocCalls = 600
	if out := TransportTable("transport", []harness.Result{retried}); !regexp.MustCompile(`stash-hit mallocs\s+0\n`).MatchString(out) {
		t.Errorf("retried pushes beyond malloc calls must saturate stash hits at 0:\n%s", out)
	}
	out := TransportTable("transport", []harness.Result{offload, inline})
	for _, want := range []string{
		"free reqs/publication", "4.00", // 400 pushes / 100 batches
		"stash-hit mallocs", "500", // 600 mallocs - 100 round trips
		"server empty polls", "7",
		"producer stall cyc/op", "0.050", // 50 / 1000 ops
		"-", // inline column has no telemetry
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAttributionTable(t *testing.T) {
	r := harness.Result{Allocator: "pt", Workload: "w"}
	r.Classes[region.Meta] = sim.ClassCounters{LLCLoadMisses: 30, DTLBLoadMisses: 1}
	r.Classes[region.User] = sim.ClassCounters{LLCLoadMisses: 70, DTLBLoadMisses: 3}
	out := AttributionTable("attr", []harness.Result{r})
	for _, want := range []string{"LLC-miss % metadata", "30.0%", "70.0%", "dTLB-miss % user", "75.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// No misses at all: cells degrade to "-", never NaN.
	empty := harness.Result{Allocator: "x"}
	out = AttributionTable("attr", []harness.Result{empty})
	if strings.Contains(out, "NaN") {
		t.Errorf("attribution table emitted NaN:\n%s", out)
	}
}

func TestResilienceTable(t *testing.T) {
	faulty := harness.Result{
		Allocator: "ngm s120k t4k",
		Resilience: &harness.ResilienceTelemetry{
			Client: core.ResilienceStats{
				Timeouts: 12, Retries: 9, MallocNacks: 3, FreeNacks: 2,
				FallbackEntries: 4, FallbackExits: 3, DegradedCycles: 250000,
				EmergencyMallocs: 180, EmergencyFrees: 170, DeferredFrees: 15,
				AbandonedRequests: 5, ReclaimedBlocks: 4,
			},
			Injected: fault.Stats{Stalls: 2, StallCycles: 240000, DoorbellDrops: 6, CorruptWords: 11},
		},
	}
	clean := harness.Result{Allocator: "mimalloc"} // no Resilience: renders "-"
	out := ResilienceTable("resilience", []harness.Result{faulty, clean})
	for _, want := range []string{
		"fallback entries", "4",
		"emergency mallocs", "180",
		"malloc NACKs", "3",
		"injected corruptions", "11",
		"reclaimed blocks",
		"-", // clean column has no telemetry
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWarpTable(t *testing.T) {
	warped := harness.Result{Allocator: "nextgen"}
	warped.Warp = sim.WarpStats{Windows: 12, Rounds: 340, CyclesWarped: 5100, LargestSkip: 900}
	inline := harness.Result{Allocator: "mimalloc"} // never warped: renders "-"
	out := WarpTable("time warp", []harness.Result{warped, inline})
	for _, want := range []string{
		"windows skipped", "12",
		"rounds skipped", "340",
		"cycles warped", "5.100E+03",
		"largest skip", "900",
		"-", // inline column has no warp activity
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSLOTableEmpty(t *testing.T) {
	for name, tr := range map[string]*slo.Tracker{
		"nil tracker":   nil,
		"fresh tracker": slo.NewTracker(slo.DefaultOptions()),
	} {
		out := SLOTable("t", tr)
		if !strings.Contains(out, "no slo data recorded") {
			t.Errorf("%s: missing empty notice:\n%s", name, out)
		}
	}
}

func TestSLOTableZeroRequestTenant(t *testing.T) {
	// A tenant that churned out with abandons only must render dash
	// latency cells, not divide by zero; a single-tenant ledger must
	// still carry the worst-window footer.
	tr := slo.NewTracker(slo.DefaultOptions())
	tr.Observe(0, 1, slo.Interactive, 0, 10, 30000) // violates the 25k budget
	tr.Abandon(3, slo.Bulk)
	out := SLOTable("per-tenant", tr)
	lines := strings.Split(out, "\n")
	var zeroRow string
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "3 ") {
			zeroRow = l
		}
	}
	if zeroRow == "" {
		t.Fatalf("abandons-only tenant missing from table:\n%s", out)
	}
	if got := strings.Count(zeroRow, "-"); got < 6 {
		t.Errorf("zero-request tenant row has %d dashes, want >= 6: %q", got, zeroRow)
	}
	if !strings.Contains(out, "worst window:") {
		t.Errorf("missing worst-window footer:\n%s", out)
	}
	if !strings.Contains(out, "interactive") {
		t.Errorf("missing class label:\n%s", out)
	}
	if !strings.Contains(out, "+") || !strings.Contains(out, "%") {
		t.Errorf("missing vs-budget cell:\n%s", out)
	}
}

func TestSLOTableDroppedSpansFooter(t *testing.T) {
	o := slo.DefaultOptions()
	o.SpanCap = 2
	tr := slo.NewTracker(o)
	for i := 0; i < 5; i++ {
		tr.Observe(0, 1, slo.Interactive, uint64(i), uint64(i), uint64(i+10))
	}
	if out := SLOTable("t", tr); !strings.Contains(out, "3 request spans beyond the retention cap") {
		t.Errorf("missing dropped-spans footer:\n%s", out)
	}
}
