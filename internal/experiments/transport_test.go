package experiments

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
)

func TestParseTransport(t *testing.T) {
	if tune, err := ParseTransport(""); err != nil || tune != nil {
		t.Errorf("the default should yield a nil tune (err %v, tune nil: %v)", err, tune == nil)
	}
	if _, err := ParseTransport("sometimes"); err == nil {
		t.Error("unknown prealloc policy should be rejected")
	}
	for _, tc := range []struct {
		policy   string
		depth    int
		adaptive bool
	}{{"off", 0, false}, {"static", 12, false}, {"adaptive", 5, true}} {
		tune, err := ParseTransport(tc.policy)
		if err != nil {
			t.Fatalf("ParseTransport(%s): %v", tc.policy, err)
		}
		cfg := core.DefaultConfig()
		cfg.Prealloc = 5
		cfg.AdaptivePrealloc = tc.policy != "adaptive"
		tune(&cfg)
		if cfg.Prealloc != tc.depth || cfg.AdaptivePrealloc != tc.adaptive {
			t.Errorf("%s tune produced Prealloc=%d AdaptivePrealloc=%v, want %d %v",
				tc.policy, cfg.Prealloc, cfg.AdaptivePrealloc, tc.depth, tc.adaptive)
		}
	}
}

// TestQuickAblateTransport checks the directions the transport exists to produce on xalanc:
// every asynchronous kind publishes its frees more than two to a line
// (xalanc frees in bursts; xmalloc alternates free and malloc, so there
// every free is published by the malloc behind it), preallocation adds
// no producer stall cycles per op, and the adaptive policy's margin over
// Mimalloc is no worse than plain offload's.
func TestQuickAblateTransport(t *testing.T) {
	out := quickOutcome(t, "ablate-transport")
	for _, want := range []string{"nextgen-sync", "free reqs/publication", "cycle margin over Mimalloc"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.Text)
		}
	}
	half := len(out.Results) / 2
	xal, xm := map[string]harness.Result{}, map[string]harness.Result{}
	for i, r := range out.Results {
		if i < half {
			xal[r.Allocator] = r
		} else {
			xm[r.Allocator] = r
		}
	}
	async := []string{"nextgen", "nextgen-prealloc", "nextgen-adaptive"}
	for _, kind := range append(async, "nextgen-sync") {
		if xal[kind].Offload == nil || xm[kind].Offload == nil {
			t.Fatalf("offload telemetry missing from the %s results", kind)
		}
	}

	// Free coalescing: well over two requests per publication wherever
	// frees are asynchronous; a synchronous free travels with its barrier
	// and nothing else.
	for _, kind := range async {
		if f := xal[kind].Offload.FreeRing; f.PushBatches*2 >= f.Pushes {
			t.Errorf("%s published %d times for %d free pushes on xalanc; expected coalescing", kind, f.PushBatches, f.Pushes)
		}
	}
	if f := xal["nextgen-sync"].Offload.FreeRing; f.PushBatches != f.Pushes {
		t.Errorf("nextgen-sync should publish per push (%d publications, %d pushes)", f.PushBatches, f.Pushes)
	}

	// Producer stalls: preallocation must not add stall cycles per op.
	stalls := func(r harness.Result) float64 {
		ops := r.AllocStats.MallocCalls + r.AllocStats.FreeCalls
		return float64(r.Offload.MallocRing.StallCycles+r.Offload.FreeRing.StallCycles) / float64(ops)
	}
	for _, kind := range async[1:] {
		if stalls(xal[kind]) > stalls(xal["nextgen"]) {
			t.Errorf("%s stall cyc/op %.4f exceeds plain offload's %.4f", kind, stalls(xal[kind]), stalls(xal["nextgen"]))
		}
	}

	// The adaptive policy's margin over Mimalloc must be no worse than
	// plain offload's.
	mi := xal["mimalloc"]
	margin := func(r harness.Result) float64 {
		return (float64(mi.Total.Cycles) - float64(r.Total.Cycles)) / float64(mi.Total.Cycles)
	}
	if margin(xal["nextgen-adaptive"]) < margin(xal["nextgen"]) {
		t.Errorf("adaptive margin %.4f worse than plain offload's %.4f", margin(xal["nextgen-adaptive"]), margin(xal["nextgen"]))
	}
}
