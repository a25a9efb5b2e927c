package experiments

import (
	"testing"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/sim"
)

// TestSetTimelineArmsRuns: the Env's sample interval must reach every
// experiment run, and interval 0 must disarm.
func TestSetTimelineArmsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e := Env{Scale: Quick}
	e.Scale.XalancOps = 5000
	e.Base.SampleInterval = 5000
	res := e.run(harness.Options{Allocator: "nextgen", Workload: table3Xalanc(e.Scale)})
	if res.Timeline == nil || len(res.Timeline.Samples) == 0 {
		t.Fatal("the Env's interval did not arm the sampler")
	}
	e.Base.SampleInterval = 0
	res = e.run(harness.Options{Allocator: "nextgen", Workload: table3Xalanc(e.Scale)})
	if res.Timeline != nil {
		t.Fatal("interval 0 did not disarm the sampler")
	}
}

// TestWarmupVersusSteadyState pins the qualitative shape the timeline
// exists to expose: on the Table 3 xalanc workload under nextgen, the
// steady-state (second half) LLC store MPKI on the worker cores must
// not exceed the warm-up (first half) MPKI — first-touch stores miss
// while the heap populates, so store misses concentrate at the front of
// the run. (Load MPKI is the wrong pin: it grows with the working set.)
func TestWarmupVersusSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	e := Env{Scale: Quick}
	e.Base.SampleInterval = 10000
	res := e.run(harness.Options{Allocator: "nextgen", Workload: table3Xalanc(e.Scale)})
	series := res.Timeline
	if len(series.Samples) < 4 {
		t.Fatalf("only %d samples; need at least 4 to split halves", len(series.Samples))
	}
	keep := func(c int) bool { return c != res.ServerCore }
	mid := len(series.Samples) / 2
	warm := series.Delta(0, mid, keep)
	steady := series.Delta(mid, len(series.Samples)-1, keep)
	if warm.Instructions == 0 || steady.Instructions == 0 {
		t.Fatalf("degenerate halves: warm %d instr, steady %d instr", warm.Instructions, steady.Instructions)
	}
	warmMPKI := sim.MPKI(warm.LLCStoreMisses, warm.Instructions)
	steadyMPKI := sim.MPKI(steady.LLCStoreMisses, steady.Instructions)
	t.Logf("warm-up LLC store MPKI %.3f (%d samples), steady-state %.3f (%d samples)",
		warmMPKI, mid, steadyMPKI, len(series.Samples)-1-mid)
	if steadyMPKI > warmMPKI {
		t.Errorf("steady-state MPKI %.3f exceeds warm-up MPKI %.3f", steadyMPKI, warmMPKI)
	}
}
