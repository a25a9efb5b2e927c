package harness

import (
	"testing"

	"nextgenmalloc/internal/workload"
)

// The shape tests assert the paper's qualitative results hold on the
// simulated reproduction (DESIGN.md §5); they run the full-scale
// experiments and are skipped under -short.

// TestPaperShapeTable1 checks Figure 1 / Table 1: PTMalloc2 is clearly
// worst, the three modern allocators are tightly grouped, and the
// dTLB-load-miss gap is an order of magnitude.
func TestPaperShapeTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	kinds := []string{"ptmalloc2", "jemalloc", "tcmalloc", "mimalloc"}
	cycles := map[string]float64{}
	tlb := map[string]float64{}
	for _, kind := range kinds {
		res := Run(Options{Allocator: kind, Workload: workload.DefaultXalanc(200000)})
		cycles[kind] = float64(res.Total.Cycles)
		tlb[kind] = float64(res.Total.DTLBLoadMisses)
		t.Logf("%-10s cycles=%.4e dTLB-load=%.3e LLC-load=%.3e", kind,
			cycles[kind], tlb[kind], float64(res.Total.LLCLoadMisses))
	}
	bestCyc, bestTLB := cycles["jemalloc"], tlb["jemalloc"]
	for _, k := range kinds[1:] {
		if cycles[k] < bestCyc {
			bestCyc = cycles[k]
		}
		if tlb[k] < bestTLB {
			bestTLB = tlb[k]
		}
	}
	if cycles["ptmalloc2"] <= cycles["jemalloc"] ||
		cycles["ptmalloc2"] <= cycles["tcmalloc"] ||
		cycles["ptmalloc2"] <= cycles["mimalloc"] {
		t.Error("PTMalloc2 is not the slowest allocator (paper Figure 1)")
	}
	if spread := cycles["ptmalloc2"] / bestCyc; spread < 1.35 {
		t.Errorf("cycle spread %.2fx, want >= 1.35x (paper: up to 1.72x)", spread)
	}
	for _, k := range []string{"jemalloc", "tcmalloc", "mimalloc"} {
		if cycles[k]/bestCyc > 1.10 {
			t.Errorf("%s is %.2fx the best modern allocator; paper groups them within ~3%%",
				k, cycles[k]/bestCyc)
		}
	}
	if ratio := tlb["ptmalloc2"] / bestTLB; ratio < 8 {
		t.Errorf("dTLB-load-miss ratio %.1fx, want >= 8x (paper: more than 10x)", ratio)
	}
}

// TestPaperShapeTable2 checks the xmalloc thread-scaling study: LLC
// misses on TCMalloc grow superlinearly from 1 to 8 threads.
func TestPaperShapeTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	miss := map[int]float64{}
	for _, n := range []int{1, 8} {
		w := &workload.Xmalloc{NThreads: n, OpsPerThread: 40000, TouchBytes: 128, Seed: 3}
		res := Run(Options{Allocator: "tcmalloc", Workload: w})
		miss[n] = float64(res.Total.LLCLoadMisses + res.Total.LLCStoreMisses)
		t.Logf("threads=%d LLC misses=%.3e", n, miss[n])
	}
	if growth := miss[8] / miss[1]; growth < 5 {
		t.Errorf("LLC miss growth 1->8 threads = %.1fx, want >= 5x (paper: more than 10x)", growth)
	}
}

// TestPaperShapeTable3 checks the NextGen-Malloc comparison: with
// predictive preallocation the offloaded allocator beats Mimalloc on
// cycles while cutting the application core's miss counters; the plain
// synchronous prototype shows the same miss reductions.
func TestPaperShapeTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	results := map[string]Result{}
	for _, kind := range []string{"mimalloc", "nextgen", "nextgen-prealloc"} {
		w := workload.DefaultXalanc(200000)
		w.ComputePerOp = 360
		w.ChaseClusters = 16
		w.ChaseEvery = 3
		results[kind] = Run(Options{Allocator: kind, Workload: w})
		r := results[kind]
		t.Logf("%-18s cycles=%.4e LLC-load=%.3e dTLB-load=%.3e",
			kind, float64(r.Total.Cycles), float64(r.Total.LLCLoadMisses),
			float64(r.Total.DTLBLoadMisses))
	}
	mi, ng, pre := results["mimalloc"], results["nextgen"], results["nextgen-prealloc"]
	if pre.Total.Cycles >= mi.Total.Cycles {
		t.Errorf("nextgen-prealloc (%d) does not beat mimalloc (%d) (paper: 4.51%% win)",
			pre.Total.Cycles, mi.Total.Cycles)
	}
	if ng.Total.LLCLoadMisses >= mi.Total.LLCLoadMisses {
		t.Error("plain nextgen does not reduce app-core LLC-load misses")
	}
	if ng.Total.DTLBLoadMisses >= mi.Total.DTLBLoadMisses {
		t.Error("plain nextgen does not reduce app-core dTLB-load misses")
	}
}

// TestProfileAllocatorCost bounds each kind's app-core cost per
// malloc/free pair on a one-thread churn. Instructions per pair stay
// within 10 % above the kind's value when the bound was set
// (instrPerPair). An offload kind's app core issues one atomic in the
// whole run, the lock it takes once to register its client rings, and
// none per pair: its metadata lives on the server core, and the rings
// are published with plain stores (paper §3.1.1).
func TestProfileAllocatorCost(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale cost profile")
	}
	instrPerPair := map[string]float64{
		"ptmalloc2": 68.5, "jemalloc": 31.3, "tcmalloc": 33.7, "mimalloc": 38.4, "bump": 16.0,
		"nextgen": 56.3, "nextgen-prealloc": 29.9, "nextgen-sync": 76.3, "nextgen-inline": 52.4,
		"nextgen-inline-agg": 49.4, "nextgen-nearmem": 87.0, "nextgen-adaptive": 30.2,
		"nextgen-compact": 57.2, "nextgen-inline-compact": 58.7,
	}
	for _, kind := range Kinds {
		w := &workload.Churn{NThreads: 1, Slots: 20000, Rounds: 100000, MinSize: 16, MaxSize: 256, TouchBytes: 0, Seed: 9}
		res := Run(Options{Allocator: kind, Workload: w})
		pairs := float64(res.AllocStats.FreeCalls)
		instr := float64(res.Total.Instructions) / pairs
		t.Logf("%-22s instr/pair=%6.1f cyc/pair=%7.1f atomics/pair=%4.2f",
			kind, instr, float64(res.Total.Cycles)/pairs, float64(res.Total.AtomicOps)/pairs)
		if want, ok := instrPerPair[kind]; !ok {
			t.Errorf("%s has no instructions-per-pair bound", kind)
		} else if instr > 1.10*want {
			t.Errorf("%s costs %.1f instructions per pair, more than 10%% above %.1f", kind, instr, want)
		}
		if OffloadKind(kind) && res.Total.AtomicOps > 1 {
			t.Errorf("%s: the app core issued %d atomics; an offload kind issues one, to register", kind, res.Total.AtomicOps)
		}
	}
}
