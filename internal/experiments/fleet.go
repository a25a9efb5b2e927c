package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/timeline"
	"nextgenmalloc/internal/workload"
)

// fleetCell is one topology of the saturation sweep.
type fleetCell struct {
	workers int
	servers int
	sched   core.SchedPolicy
	part    core.Partition
}

// schedLabel names the cell's policy, with the non-default partition
// tagged (e.g. "round-robin/class").
func (c fleetCell) schedLabel() string {
	if c.part == core.ByClass {
		return c.sched.String() + "/class"
	}
	return c.sched.String()
}

// fleetCells builds the sweep grid: the workers × servers scaling plane
// under round-robin (the fair policy), the scheduling-policy comparison
// at the most contended topology, and one size-class-partition variant.
func fleetCells() []fleetCell {
	var cells []fleetCell
	for _, w := range []int{8, 16, 32, 64} {
		for _, s := range []int{1, 2, 4} {
			cells = append(cells, fleetCell{workers: w, servers: s, sched: core.RoundRobin})
		}
	}
	for _, p := range []core.SchedPolicy{core.FixedScan, core.DoorbellPriority, core.BatchDrain} {
		cells = append(cells, fleetCell{workers: 64, servers: 2, sched: p})
	}
	cells = append(cells, fleetCell{workers: 64, servers: 2, sched: core.RoundRobin, part: core.ByClass})
	return cells
}

// fleetMachine is a cell's machine: one core per worker and server, and
// long leases unless -quantum was given — they let the time warp skip
// deep into the saturated workers' response-line waits (~7x host time on
// the biggest cells).
func (e Env) fleetMachine(c fleetCell) *sim.Config {
	cfg := e.machine()
	if !e.quantumSet() {
		cfg.Quantum = 4096
	}
	cfg.Cores = c.workers + c.servers
	return cfg
}

// fleetWorkload is the per-worker transformer: table3 allocation
// density (malloc/free a small sliver of runtime), a deliberately
// small per-worker live set, and a fixed total transform budget split
// across the workers — so sweeping the worker axis varies parallelism,
// not the amount of work, and the 64-worker saturated cells stay
// simulable.
func fleetWorkload(s Scale, workers int) workload.Workload {
	ops := s.XalancOps / workers
	if ops < 300 {
		ops = 300
	}
	if ops > 5000 {
		ops = 5000
	}
	proto := workload.Xalanc{
		Ops:           ops,
		NodeSlots:     512,
		Burst:         16,
		ComputePerOp:  360,
		ChaseEvery:    3,
		ChaseClusters: 16,
		TouchBytes:    96,
		Seed:          1,
	}
	return workload.NewParallelXalanc(workers, proto)
}

// worstClientP99 computes the worst per-client p99 end-to-end malloc
// latency from the raw span buffer (exact order statistics, not the
// histogram approximation — the sweep sizes the buffer to retain every
// span).
func worstClientP99(rec *timeline.LatencyRecorder) uint64 {
	if rec == nil {
		return 0
	}
	byClient := map[int][]uint64{}
	for _, sp := range rec.Spans {
		if sp.Op == timeline.OpMalloc {
			byClient[sp.Client] = append(byClient[sp.Client], sp.EndToEnd())
		}
	}
	var worst uint64
	for _, lats := range byClient {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		idx := (len(lats)*99 + 99) / 100
		if idx > len(lats) {
			idx = len(lats)
		}
		if p99 := lats[idx-1]; p99 > worst {
			worst = p99
		}
	}
	return worst
}

// fleetRow condenses one run into the table's metrics.
func fleetRow(c fleetCell, r harness.Result) report.FleetRow {
	row := report.FleetRow{
		Workers:      c.workers,
		Servers:      c.servers,
		Sched:        c.schedLabel(),
		WallCycles:   r.WallCycles,
		WorstP99:     worstClientP99(r.Latency),
		OpsPerKCycle: float64(r.AllocStats.MallocCalls+r.AllocStats.FreeCalls) * 1000 / float64(r.WallCycles),
	}
	for _, s := range r.Servers {
		if loop := s.BusyCycles + s.IdleCycles; loop > 0 {
			if share := float64(s.BusyCycles) / float64(loop); share > row.BusyShare {
				row.BusyShare = share
			}
		}
		for _, cl := range s.Clients {
			if cl.MaxGapCycles > row.MaxGap {
				row.MaxGap = cl.MaxGapCycles
			}
		}
	}
	return row
}

// FleetSweep answers the ROADMAP's fleet-scaling question: how many
// client cores can one allocator server carry, and does sharding the
// server recover the lost throughput past that point? It sweeps
// workers × server shards on the table3-density xalanc (round-robin
// service order), compares the four scheduling policies at the most
// contended topology, and reports per cell: allocator throughput, the
// busiest shard's busy share (the saturation gauge), the worst
// per-client p99 malloc latency, and the widest per-client service gap
// (the starvation metric).
func FleetSweep(e Env) Outcome {
	cells := fleetCells()
	interval := e.Base.SampleInterval
	if interval == 0 {
		interval = 1 << 20
	}
	all := runAll(len(cells), func(i int) harness.Result {
		c := cells[i]
		r := harness.Run(harness.Options{
			Allocator:      "nextgen",
			Workload:       fleetWorkload(e.Scale, c.workers),
			Machine:        e.fleetMachine(c),
			Servers:        c.servers,
			Sched:          c.sched,
			Partition:      c.part,
			SampleInterval: interval,
			SpanCapacity:   1 << 20,
		})
		r.Allocator = fmt.Sprintf("ngm w%d s%d %s", c.workers, c.servers, c.schedLabel())
		return r
	})

	rows := make([]report.FleetRow, len(all))
	for i := range all {
		rows[i] = fleetRow(cells[i], all[i])
	}

	var b strings.Builder
	b.WriteString(report.FleetTable("Fleet sweep: workers × server shards on xalanc (round-robin) + policy comparison at 64w", rows))

	// Saturation read-out: walk the single-server round-robin series and
	// find where doubling the workers stops buying throughput.
	single := map[int]report.FleetRow{}
	best64 := report.FleetRow{}
	var base64 report.FleetRow
	for i, c := range cells {
		if c.sched != core.RoundRobin || c.part != core.ByClient {
			continue
		}
		if c.servers == 1 {
			single[c.workers] = rows[i]
		}
		if c.workers == 64 {
			if c.servers == 1 {
				base64 = rows[i]
			} else if rows[i].OpsPerKCycle > best64.OpsPerKCycle {
				best64 = rows[i]
			}
		}
	}
	knee := 0
	for _, w := range []int{8, 16, 32} {
		lo, hi := single[w], single[2*w]
		if lo.OpsPerKCycle > 0 && hi.OpsPerKCycle/lo.OpsPerKCycle < 1.25 {
			knee = w
			break
		}
	}
	if knee > 0 {
		lo, hi := single[knee], single[2*knee]
		fmt.Fprintf(&b, "\nsingle server saturates near %d workers: doubling to %d buys %+.1f%% throughput (busy share %.2f -> %.2f)\n",
			knee, 2*knee, (hi.OpsPerKCycle/lo.OpsPerKCycle-1)*100, lo.BusyShare, hi.BusyShare)
	} else {
		fmt.Fprintf(&b, "\nsingle server not saturated in this sweep (throughput still scaling at 64 workers)\n")
	}
	if base64.OpsPerKCycle > 0 && best64.OpsPerKCycle > 0 {
		fmt.Fprintf(&b, "at 64 workers, sharding to %d servers: throughput %.2f -> %.2f ops/kcycle (%+.1f%%), worst-client p99 malloc %s -> %s cycles\n",
			best64.Servers, base64.OpsPerKCycle, best64.OpsPerKCycle,
			(best64.OpsPerKCycle/base64.OpsPerKCycle-1)*100,
			report.Sci(float64(base64.WorstP99)), report.Sci(float64(best64.WorstP99)))
	}
	return Outcome{ID: "fleet-sweep", Results: all, Text: b.String()}
}
