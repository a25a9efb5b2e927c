package experiments

import (
	"strings"
	"sync"
	"testing"

	"nextgenmalloc/internal/metrics"
)

var quick struct {
	once     sync.Once
	outcomes []Outcome
	err      error
}

// quickSuite returns the outcomes of one run of the whole registry, in
// registry order, exactly as the flagless `ngm-bench -scale quick all`
// computes them. The suite runs once per test binary and every
// quick-scale check reads it, so no simulation runs twice.
func quickSuite(t *testing.T) []Outcome {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the whole quick suite, about a minute on 2 CPUs")
	}
	quick.once.Do(func() {
		// The flagless parse, not Env{Scale: Quick}: it sets Base.Servers
		// to 1 where the zero Env leaves 0.
		var e Env
		if e, _, quick.err = parseRunFlags(); quick.err != nil {
			return
		}
		e.Scale = Quick
		quick.outcomes = RunSuite(Registry, e, nil)
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.outcomes
}

// quickOutcome returns one registry experiment's outcome from the
// shared quick suite.
func quickOutcome(t *testing.T, id string) Outcome {
	t.Helper()
	for _, out := range quickSuite(t) {
		if out.ID == id {
			return out
		}
	}
	t.Fatalf("the registry has no experiment %q", id)
	return Outcome{}
}

// TestQuickSuiteDocument checks the quick suite's metrics document, built
// by the same function ngm-bench -metrics writes: it validates, every
// slo-sweep cell carries an slo block, and the stall plan worsens the
// worst window: the most violations in any window over the single-shard
// stall cells exceeds the same over the single-shard clean cells.
func TestQuickSuiteDocument(t *testing.T) {
	doc := Metrics(quickSuite(t))
	data, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Error(err)
	}
	worst := map[string]uint64{} // "ngm clean" / "ngm stall" -> max worst-window violations
	for _, exp := range doc.Experiments {
		if exp.ID != "slo-sweep" {
			continue
		}
		for _, r := range exp.Results {
			if r.SLO == nil {
				t.Fatalf("slo-sweep cell %q lacks an slo block", r.Allocator)
			}
			if strings.HasSuffix(r.Allocator, "4sh") || r.SLO.WorstWindow == nil {
				continue
			}
			for _, plan := range []string{"ngm clean", "ngm stall"} {
				if strings.HasPrefix(r.Allocator, plan) {
					worst[plan] = max(worst[plan], r.SLO.WorstWindow.Violations)
				}
			}
		}
	}
	if worst["ngm stall"] <= worst["ngm clean"] {
		t.Errorf("slo-sweep: the stall plan did not worsen the worst window: clean %d, stall %d",
			worst["ngm clean"], worst["ngm stall"])
	}
}

// TestQuickSuiteLiveness: every run of every quick experiment completes
// and loses no request (harness.Result.CheckLiveness).
func TestQuickSuiteLiveness(t *testing.T) {
	for _, out := range quickSuite(t) {
		for _, r := range out.Results {
			if err := r.CheckLiveness(); err != nil {
				t.Errorf("%s %s/%s: %v", out.ID, r.Allocator, r.Workload, err)
			}
		}
	}
}
