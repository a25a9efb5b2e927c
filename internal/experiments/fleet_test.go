package experiments

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/metrics"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

// TestQuickFleetSweep checks the quick saturation sweep's acceptance
// bar: every cell carries its topology's server blocks and per-client
// ledger, the single-server series exposes a saturation knee, and at 64
// workers a sharded (S >= 2) topology beats the single server on both
// throughput and worst-client p99 malloc latency (every cell's liveness
// is TestQuickSuiteLiveness's).
func TestQuickFleetSweep(t *testing.T) {
	out := quickOutcome(t, "fleet-sweep")
	cells := fleetCells()
	if len(out.Results) != len(cells) {
		t.Fatalf("expected %d results, got %d", len(cells), len(out.Results))
	}
	rows := make([]report.FleetRow, len(cells))
	for i, r := range out.Results {
		if len(r.Servers) != cells[i].servers {
			t.Errorf("%s: %d server telemetry blocks, want %d",
				r.Allocator, len(r.Servers), cells[i].servers)
		}
		if m := metrics.FromResult(r); len(m.Servers) != cells[i].servers {
			t.Errorf("%s: metrics document carries %d server blocks, want %d",
				r.Allocator, len(m.Servers), cells[i].servers)
		}
		var perClient uint64
		for _, sv := range r.Servers {
			for _, cl := range sv.Clients {
				perClient += cl.Served
			}
		}
		if perClient != r.Served {
			t.Errorf("%s: per-client service counts sum to %d, server served %d",
				r.Allocator, perClient, r.Served)
		}
		rows[i] = fleetRow(cells[i], out.Results[i])
	}

	// The headline acceptance comparison, recomputed from the raw rows
	// rather than parsed from the rendered text.
	var base64 report.FleetRow
	best64 := report.FleetRow{}
	for i, c := range cells {
		if c.workers != 64 || c.sched != core.RoundRobin || c.part != core.ByClient {
			continue
		}
		if c.servers == 1 {
			base64 = rows[i]
		} else if rows[i].OpsPerKCycle > best64.OpsPerKCycle {
			best64 = rows[i]
		}
	}
	if base64.OpsPerKCycle == 0 || best64.OpsPerKCycle == 0 {
		t.Fatal("sweep grid lost its 64-worker comparison cells")
	}
	if best64.OpsPerKCycle <= base64.OpsPerKCycle {
		t.Errorf("sharding did not recover throughput at 64 workers: %d servers %.2f ops/kcycle vs single %.2f",
			best64.Servers, best64.OpsPerKCycle, base64.OpsPerKCycle)
	}
	if best64.WorstP99 >= base64.WorstP99 {
		t.Errorf("sharding did not recover tail latency at 64 workers: %d servers p99 %d vs single %d",
			best64.Servers, best64.WorstP99, base64.WorstP99)
	}

	for _, want := range []string{
		"Fleet sweep", "Busy share", "Max gap",
		"saturates near", "at 64 workers, sharding",
	} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.Text)
		}
	}
}

// TestSetFleetArmsRuns: the Env's topology flows into the standard
// experiment runner the same way -timeline and -fault do, and a run that
// owns its topology wins over it.
func TestSetFleetArmsRuns(t *testing.T) {
	e := Env{Base: harness.Options{Servers: 2, Sched: core.RoundRobin}}

	r := e.run(harness.Options{Allocator: "nextgen", Workload: workload.DefaultXalanc(2000)})
	if len(r.Servers) != 2 {
		t.Fatalf("the Env's topology did not reach the run: %d server blocks, want 2", len(r.Servers))
	}
	if err := r.CheckLiveness(); err != nil {
		t.Error(err)
	}

	// Inline allocators have no server to shard; the Env must not touch
	// them.
	r2 := e.run(harness.Options{Allocator: "mimalloc", Workload: workload.DefaultXalanc(2000)})
	if len(r2.Servers) != 0 {
		t.Errorf("topology leaked into an inline allocator run: %d server blocks", len(r2.Servers))
	}

	// A run that sets its own server count keeps it.
	r3 := e.run(harness.Options{Allocator: "nextgen", Workload: workload.DefaultXalanc(2000), Servers: 1})
	if len(r3.Servers) != 1 {
		t.Errorf("per-run server count was not honoured: %d server blocks, want 1", len(r3.Servers))
	}
}
