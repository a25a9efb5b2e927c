package harness

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/timeline"
	"nextgenmalloc/internal/workload"
)

// fleetXalanc builds a small N-worker xalanc for the topology tests.
func fleetXalanc(workers, ops int) workload.Workload {
	proto := *workload.DefaultXalanc(ops)
	proto.NodeSlots = 256
	return workload.NewParallelXalanc(workers, proto)
}

// maxGap returns the widest per-client service gap across every shard.
func maxGap(r Result) uint64 {
	var worst uint64
	for _, sv := range r.Servers {
		for _, cl := range sv.Clients {
			if cl.MaxGapCycles > worst {
				worst = cl.MaxGapCycles
			}
		}
	}
	return worst
}

// TestFleetConformance: N clients × S servers, cross-thread frees
// (xmalloc's producer/consumer pattern exercises the owner routing).
// Every shard must balance its ledger: pushes == pops, served + NACKs
// == pops, per-client service counts sum to the shard's served count,
// and the shards sum to the aggregate.
func TestFleetConformance(t *testing.T) {
	for _, servers := range []int{2, 4} {
		t.Run(fmt.Sprintf("s%d", servers), func(t *testing.T) {
			cfg := sim.ScaledConfig()
			cfg.Cores = 4 + servers
			w := &workload.Xmalloc{NThreads: 4, OpsPerThread: 2000, TouchBytes: 128, Seed: 3}
			res := Run(Options{
				Allocator: "nextgen:sched=round-robin",
				Workload:  w,
				Machine:   &cfg,
				Servers:   servers,
			})
			if err := res.CheckLiveness(); err != nil {
				t.Fatal(err)
			}
			if len(res.Servers) != servers {
				t.Fatalf("%d server telemetry blocks, want %d", len(res.Servers), servers)
			}
			var total uint64
			for i, sv := range res.Servers {
				if sv.Served == 0 {
					t.Errorf("server %d served nothing (partition routed no clients to it)", i)
				}
				pushes := sv.MallocRing.Pushes + sv.FreeRing.Pushes
				pops := sv.MallocRing.Pops + sv.FreeRing.Pops
				if pushes != pops {
					t.Errorf("server %d: %d pushes vs %d pops", i, pushes, pops)
				}
				if sv.Served+sv.Nacks != pops {
					t.Errorf("server %d: served %d + nacks %d != pops %d", i, sv.Served, sv.Nacks, pops)
				}
				var perClient uint64
				for _, cl := range sv.Clients {
					perClient += cl.Served
				}
				if perClient != sv.Served {
					t.Errorf("server %d: per-client counts sum to %d, served %d", i, perClient, sv.Served)
				}
				total += sv.Served
			}
			if total != res.Served {
				t.Errorf("shards served %d, aggregate says %d", total, res.Served)
			}
		})
	}
}

// TestFleetByClassPartition: the size-class partition routes by class,
// not by client, so a size-mixing workload must light up both shards
// and the ledger must still balance.
func TestFleetByClassPartition(t *testing.T) {
	cfg := sim.ScaledConfig()
	cfg.Cores = 4
	w := &workload.Churn{NThreads: 2, Slots: 2000, Rounds: 6000, MinSize: 16, MaxSize: 256, TouchBytes: 32, Seed: 7}
	res := Run(Options{
		Allocator: "nextgen:sched=round-robin,partition=class",
		Workload:  w,
		Machine:   &cfg,
		Servers:   2,
	})
	if err := res.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 2 {
		t.Fatalf("%d server telemetry blocks, want 2", len(res.Servers))
	}
	for i, sv := range res.Servers {
		if sv.Served == 0 {
			t.Errorf("server %d served nothing under the class partition", i)
		}
	}
}

// TestRoundRobinServiceShare: on a symmetric workload, round-robin
// service order must not starve any client — every client's service
// count stays within 2x of every other's.
func TestRoundRobinServiceShare(t *testing.T) {
	cfg := sim.ScaledConfig()
	cfg.Cores = 5
	res := Run(Options{
		Allocator: "nextgen:sched=round-robin",
		Workload:  fleetXalanc(4, 3000),
		Machine:   &cfg,
	})
	if err := res.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 1 {
		t.Fatalf("%d server telemetry blocks, want 1", len(res.Servers))
	}
	clients := res.Servers[0].Clients
	if len(clients) != 4 {
		t.Fatalf("%d clients registered, want 4", len(clients))
	}
	min, max := clients[0].Served, clients[0].Served
	for _, cl := range clients[1:] {
		if cl.Served < min {
			min = cl.Served
		}
		if cl.Served > max {
			max = cl.Served
		}
	}
	if min == 0 || max > 2*min {
		t.Errorf("service share skewed under round-robin: min %d, max %d", min, max)
	}
}

// TestStarvationGapUnderStall: an injected server stall must surface in
// the starvation metric — the widest per-client service gap covers the
// stall window — while a clean run stays well below it. The explicit
// zero-valued resilience keeps the seed blocking protocol (no fallback
// hides the stall).
func TestStarvationGapUnderStall(t *testing.T) {
	const stall = 60000
	opts := func() Options {
		return Options{
			Allocator:  "nextgen:sched=round-robin",
			Workload:   fleetXalanc(2, 2500),
			Resilience: &core.Resilience{},
		}
	}
	clean := Run(opts())
	stalled := opts()
	// Periodic windows: a one-shot window can elapse inside one long
	// serve or a warp-skipped idle stretch, injecting nothing.
	stalled.FaultPlans = []fault.Plan{{StallCycles: stall, StallStart: 30000, StallPeriod: 240000}}
	res := Run(stalled)
	if err := res.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	if res.Resilience == nil || res.Resilience.Injected.Stalls == 0 {
		t.Fatal("stall plan injected nothing")
	}
	if g := maxGap(res); g < stall {
		t.Errorf("stalled run's widest service gap %d does not cover the %d-cycle stall", g, stall)
	}
	if g := maxGap(clean); g >= stall {
		t.Errorf("clean run's widest service gap %d already exceeds the stall length", g)
	}
	if maxGap(clean) >= maxGap(res) {
		t.Errorf("stall did not widen the service gap: clean %d vs stalled %d", maxGap(clean), maxGap(res))
	}
}

// TestCrossClientWaitBound pins the Server.Poll fairness fix: under
// fixed-scan, the background free pass re-checks only the current
// client's malloc ring between frees, so client A's synchronous malloc
// can wait behind client B's whole 16-free slice.
// doorbell-priority and round-robin re-check every malloc ring between
// frees and must cut the p99 malloc queue wait at least in half.
// (The single worst span is a warm-up artifact shared by every policy
// — the first mallocs wait out another client's initial slab carve,
// which no policy preempts — so the bound is pinned at p99.)
func TestCrossClientWaitBound(t *testing.T) {
	p99Wait := func(sched core.SchedPolicy) uint64 {
		cfg := sim.ScaledConfig()
		cfg.Cores = 9
		res := Run(Options{
			Allocator:      "nextgen:sched=" + sched.String(),
			Workload:       fleetXalanc(8, 1500),
			Machine:        &cfg,
			SampleInterval: 1 << 16,
		})
		if err := res.CheckLiveness(); err != nil {
			t.Fatal(err)
		}
		var waits []uint64
		for _, sp := range res.Latency.Spans {
			if sp.Op == timeline.OpMalloc {
				waits = append(waits, sp.QueueWait())
			}
		}
		if len(waits) == 0 {
			t.Fatal("no malloc spans recorded")
		}
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		return waits[int(float64(len(waits)-1)*0.99)]
	}
	fixed := p99Wait(core.FixedScan)
	for _, fair := range []core.SchedPolicy{core.DoorbellPriority, core.RoundRobin} {
		if got := p99Wait(fair); 2*got > fixed {
			t.Errorf("%s p99 malloc queue wait %d is not at most half of fixed-scan's %d", fair, got, fixed)
		}
	}
}

// TestRunEErrors: every invalid topology comes back as the same error
// from Check (before anything runs) and RunE (the CLIs print it and exit
// 2), and as the matching panic from the Run shim.
func TestRunEErrors(t *testing.T) {
	tiny := sim.ScaledConfig()
	tiny.Cores = 3
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"unknown allocator", Options{Allocator: "nosuch", Workload: smallChurn()}, "unknown allocator"},
		{"negative servers", Options{Allocator: "nextgen", Workload: smallChurn(), Servers: -1}, "negative server count"},
		{"shard inline", Options{Allocator: "mimalloc", Workload: smallChurn(), Servers: 2}, "no offload server"},
		{"too many servers", Options{Allocator: "nextgen", Workload: smallChurn(), Machine: &tiny, Servers: 4}, "do not fit"},
		// A malformed kind spec is an error before any thread runs, never
		// a panic inside one.
		{"invalid layout", Options{Allocator: "nextgen:layout=bitmap", Workload: smallChurn()}, "unknown layout"},
		{"spec unknown base", Options{Allocator: "nextgen-turbo:layout=compact", Workload: smallChurn()}, "unknown allocator"},
		{"spec unknown key", Options{Allocator: "nextgen:stash=4", Workload: smallChurn()}, `unknown key "stash"`},
		{"spec bad value", Options{Allocator: "nextgen-inline:free=lazy", Workload: smallChurn()}, "unknown free policy"},
		{"spec duplicate key", Options{Allocator: "nextgen:prealloc=static,prealloc=off", Workload: smallChurn()}, `duplicate key "prealloc"`},
		{"spec slots not a power of two", Options{Allocator: "nextgen:slots=3", Workload: smallChurn()}, "power of two"},
		{"spec keys on a classic kind", Options{Allocator: "mimalloc:layout=compact", Workload: smallChurn()}, "takes no keys"},
		{"worker collision", Options{
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 2, OpsPerThread: 10, Seed: 1},
			Machine:   &tiny,
			Servers:   2,
		}, "collide"},
		{"fault shard out of range", Options{
			Allocator:  "nextgen",
			Workload:   smallChurn(),
			FaultPlans: []fault.Plan{{Shard: 4, StallCycles: 1000}},
		}, "fault plan targets shard 3 but the run has 1 server(s)"},
		{"two fault plans one shard", Options{
			Allocator:  "nextgen",
			Workload:   smallChurn(),
			FaultPlans: []fault.Plan{{StallCycles: 1000}, {Shard: 1, DropEveryN: 7}},
		}, "two fault plans target shard 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RunE(c.opt)
			if err == nil {
				t.Fatal("RunE accepted an invalid topology")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			if cerr := Check(c.opt); cerr == nil || cerr.Error() != err.Error() {
				t.Errorf("Check returns %v, RunE %q", cerr, err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Error("Run did not panic on the same topology")
				} else if msg, ok := r.(string); !ok || msg != err.Error() {
					t.Errorf("Run panic %v differs from RunE error %q", r, err)
				}
			}()
			Run(c.opt)
		})
	}
}

// TestFleetDefaultTopologyUnchanged: Servers 0/1 with the default
// policy is the seed topology — one daemon, a single telemetry block,
// counters identical between the implicit and explicit spellings.
func TestFleetDefaultTopologyUnchanged(t *testing.T) {
	opts := func() Options {
		return Options{Allocator: "nextgen", Workload: smallChurn()}
	}
	implicit := Run(opts())
	explicit := opts()
	explicit.Allocator = "nextgen:sched=fixed-scan,partition=client"
	explicit.Servers = 1
	res := Run(explicit)
	if implicit.Total != res.Total || implicit.Server != res.Server ||
		implicit.WallCycles != res.WallCycles || implicit.Served != res.Served {
		t.Error("explicit -servers 1 -sched fixed-scan diverged from the default topology")
	}
	if len(res.Servers) != 1 {
		t.Fatalf("%d server telemetry blocks, want 1", len(res.Servers))
	}
	if res.Servers[0].Served != res.Served {
		t.Errorf("single shard served %d, aggregate %d", res.Servers[0].Served, res.Served)
	}
}
