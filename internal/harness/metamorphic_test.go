package harness

import (
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

// simulated is the part of a Result the simulation alone decides: the
// worker and server counters and their address-class attribution.
type simulated struct {
	Total, Server          sim.Counters
	WallCycles             uint64
	Classes, ServerClasses sim.ClassBreakdown
}

func simulatedOf(r Result) simulated {
	return simulated{r.Total, r.Server, r.WallCycles, r.Classes, r.ServerClasses}
}

// TestMetamorphicRelations checks relations that move one input and
// assert what the output does, so they need no ground truth. Each row
// names the experiment it protects and runs the base and moved options
// of every cell; the moved run must leave every simulated counter where
// the base run put it.
//
// fault: a plan that can never fire (its one stall window opens at
// cycle 2^60) is bit-identical to no plan, under either resilience
// policy, on one server and on a two-shard fleet. It protects every
// fault experiment's clean column from the injector hook itself.
func TestMetamorphicRelations(t *testing.T) {
	neverFires := []fault.Plan{{StallStart: 1 << 60, StallCycles: 1000}}
	single := func() workload.Workload {
		w := workload.DefaultXalanc(2000)
		w.NodeSlots = 1500
		return w
	}
	on := core.DefaultResilience()
	type cell struct {
		name        string
		base, moved Options
	}
	faultCells := func() []cell {
		var cells []cell
		for _, pol := range []struct {
			name string
			r    *core.Resilience
		}{{"resilience-off", &core.Resilience{}}, {"resilience-on", &on}} {
			for _, top := range []struct {
				name    string
				servers int
				w       func() workload.Workload
			}{
				{"1-server", 1, single},
				{"2-shard", 2, func() workload.Workload { return fleetXalanc(2, 1500) }},
			} {
				base := Options{Allocator: "nextgen", Workload: top.w(), Servers: top.servers, Resilience: pol.r}
				moved := base
				moved.Workload = top.w()
				moved.FaultPlans = neverFires
				cells = append(cells, cell{pol.name + "/" + top.name, base, moved})
			}
		}
		return cells
	}
	for _, row := range []struct {
		experiment string
		relation   string
		cells      []cell
	}{
		{"fault", "a plan that can never fire is bit-identical to no plan", faultCells()},
	} {
		for _, c := range row.cells {
			t.Run(row.experiment+"/"+c.name, func(t *testing.T) {
				base, moved := Run(c.base), Run(c.moved)
				if moved.Resilience == nil {
					t.Fatal("the moved run armed no fault plan")
				}
				if b, m := simulatedOf(base), simulatedOf(moved); b != m {
					t.Errorf("%s broken:\nbase  %+v\nmoved %+v", row.relation, b, m)
				}
			})
		}
	}
}
