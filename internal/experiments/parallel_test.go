package experiments

import (
	"reflect"
	"testing"
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
