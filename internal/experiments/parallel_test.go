package experiments

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestParallelMatchesSerial is the counters-unchanged guarantee for the
// fan-out machinery: the same experiment run serially and with four
// machines in flight must produce identical Results down to the last
// PMU counter, not just identical rendered text.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight simulations")
	}
	s := Quick
	s.XalancOps = 5000
	s.XmallocOps = 2000
	s.ChurnRounds = 4000
	s.ScratchRounds = 500

	prev := Parallelism()
	defer SetParallelism(prev)

	SetParallelism(1)
	serial := Figure1(Env{Scale: s})
	SetParallelism(4)
	parallel := Figure1(Env{Scale: s})

	if serial.Text != parallel.Text {
		t.Errorf("rendered text differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Text, parallel.Text)
	}
	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result count differs: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i := range serial.Results {
		if !reflect.DeepEqual(serial.Results[i], parallel.Results[i]) {
			t.Errorf("result %d (%s/%s) differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
				i, serial.Results[i].Allocator, serial.Results[i].Workload,
				serial.Results[i], parallel.Results[i])
		}
	}
}

// TestRunAllOrderAndCoverage: results come back in job order regardless
// of completion order.
func TestRunAllOrderAndCoverage(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(4)
	got := runAll(17, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

// TestRunSuiteOrder: outcomes come back in selection order at any bound,
// done sees every experiment exactly once on the calling goroutine, and
// a bound of 1 runs and reports them strictly in order.
func TestRunSuiteOrder(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	var sel []Experiment
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		sel = append(sel, Experiment{id, func(Env) Outcome { return Outcome{ID: id} }})
	}
	for _, bound := range []int{1, 4} {
		SetParallelism(bound)
		var reported []int
		outs := RunSuite(sel, Env{}, func(i int, out Outcome, _ time.Duration) {
			if out.ID != sel[i].ID {
				t.Errorf("bound %d: done(%d) got outcome %q", bound, i, out.ID)
			}
			reported = append(reported, i)
		})
		for i, out := range outs {
			if out.ID != sel[i].ID {
				t.Errorf("bound %d: slot %d holds %q, want %q", bound, i, out.ID, sel[i].ID)
			}
		}
		sorted := slices.Sorted(slices.Values(reported))
		if !slices.Equal(sorted, []int{0, 1, 2, 3, 4}) || (bound == 1 && !slices.Equal(reported, sorted)) {
			t.Errorf("bound %d: done reported %v", bound, reported)
		}
	}
}
