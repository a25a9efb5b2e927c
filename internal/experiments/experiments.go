// Package experiments defines one runnable experiment per table and
// figure in the paper's evaluation (see DESIGN.md §5 for the index),
// shared by cmd/ngm-bench and the repository's benchmark suite.
//
// Every experiment runs on sim.ScaledConfig (capacities scaled with the
// scaled-down workloads; see EXPERIMENTS.md for the methodology) and is
// bit-deterministic for a given Scale.
package experiments

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/model"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

// Scale sets the op counts; Quick keeps CI fast, Full is the
// paper-shape configuration the committed EXPERIMENTS.md numbers use.
type Scale struct {
	Name            string
	XalancOps       int
	XmallocOps      int // per thread
	ChurnRounds     int
	ScratchRounds   int
	ServiceRequests int // per worker
}

// Quick is the smoke-test scale.
var Quick = Scale{Name: "quick", XalancOps: 40000, XmallocOps: 10000, ChurnRounds: 30000, ScratchRounds: 2000, ServiceRequests: 600}

// Full is the reference scale used for the committed results.
var Full = Scale{Name: "full", XalancOps: 200000, XmallocOps: 40000, ChurnRounds: 100000, ScratchRounds: 8000, ServiceRequests: 4000}

// Outcome bundles an experiment's raw results and rendered text.
type Outcome struct {
	ID      string
	Results []harness.Result
	Text    string
}

func runSet(w func() workload.Workload, kinds []string) []harness.Result {
	return runAll(len(kinds), func(i int) harness.Result {
		// Tune is the CLI's global -prealloc/-layout override (nil unless
		// set); it only affects NextGen kinds.
		return run(harness.Options{Allocator: kinds[i], Workload: w(), Tune: globalTune()})
	})
}

// Figure1 reproduces the execution-time sensitivity bars: xalanc across
// the four classic allocators (paper: up to 1.72x between PTMalloc2 and
// Mimalloc).
func Figure1(s Scale) Outcome {
	results := runSet(func() workload.Workload { return workload.DefaultXalanc(s.XalancOps) }, harness.ClassicKinds)
	labels := make([]string, len(results))
	values := make([]float64, len(results))
	for i, r := range results {
		labels[i] = r.Allocator
		values[i] = float64(r.Total.Cycles)
	}
	return Outcome{
		ID:      "figure1",
		Results: results,
		Text: report.Bars("Figure 1: xalanc execution time by allocator (normalized to fastest)",
			labels, values),
	}
}

// Table1 reproduces the PMU-counter table for xalanc across the four
// classic allocators.
func Table1(s Scale) Outcome {
	results := runSet(func() workload.Workload { return workload.DefaultXalanc(s.XalancOps) }, harness.ClassicKinds)
	return Outcome{
		ID:      "table1",
		Results: results,
		Text: report.CounterTable("Table 1: processor performance monitor data for xalanc", results) +
			"\n" + report.AttributionTable("Miss attribution for xalanc (share of worker-core misses by address class)", results),
	}
}

// Table2 reproduces the xmalloc thread-scaling study on TCMalloc
// (paper: LLC misses grow >10x from 1 to 8 threads).
func Table2(s Scale) Outcome {
	threads := []int{1, 2, 4, 8}
	results := runAll(len(threads), func(i int) harness.Result {
		w := &workload.Xmalloc{NThreads: threads[i], OpsPerThread: s.XmallocOps, TouchBytes: 128, Seed: 3}
		return run(harness.Options{Allocator: "tcmalloc", Workload: w})
	})
	header := []string{"# of threads"}
	for _, n := range threads {
		header = append(header, fmt.Sprintf("%d", n))
	}
	rows := report.CounterRows(results)
	return Outcome{
		ID:      "table2",
		Results: results,
		Text:    report.Table("Table 2: PMU data for xmalloc on TCMalloc by thread count", header, rows),
	}
}

// Table3 reproduces the side-by-side Mimalloc vs NextGen-Malloc
// comparison on xalanc (paper: 4.51% improvement from reduced dTLB-load,
// LLC-load and LLC-store misses). The application cores' counters are
// compared, as perf attributes them to the process's compute cores.
func Table3(s Scale) Outcome {
	w := func() workload.Workload { return table3Xalanc(s) }
	results := runSet(w, []string{"mimalloc", "nextgen", "nextgen-prealloc"})
	text := report.CounterTable("Table 3: Mimalloc vs NextGen-Malloc on xalanc (application cores)", results)
	mi, ng, pre := results[0], results[1], results[2]
	imp := func(r harness.Result) float64 {
		return (float64(mi.Total.Cycles) - float64(r.Total.Cycles)) / float64(mi.Total.Cycles) * 100
	}
	text += fmt.Sprintf("\ncycle improvement over Mimalloc (paper: 4.51%%):\n")
	text += fmt.Sprintf("  nextgen (sync malloc, async free, as the §4.2 prototype): %+.2f%%\n", imp(ng))
	text += fmt.Sprintf("  nextgen-prealloc (§3.3.2 predictive preallocation):       %+.2f%%\n", imp(pre))
	text += fmt.Sprintf("NextGen server core: %s cycles, %s ops served\n",
		report.Sci(float64(ng.Server.Cycles)), report.Sci(float64(ng.Served)))
	return Outcome{ID: "table3", Results: results, Text: text}
}

// table3Xalanc is the Table 3 workload: the same xalanc generator at the
// paper's allocation density (malloc/free are a ~2% sliver of runtime,
// the rest is transform compute and node traffic).
func table3Xalanc(s Scale) workload.Workload {
	w := workload.DefaultXalanc(s.XalancOps)
	w.ComputePerOp = 360
	w.ChaseClusters = 16
	w.ChaseEvery = 3
	return w
}

// Model evaluates the paper's §4.1 analytical model with its exact
// inputs.
func Model() Outcome {
	in := model.PaperInputs()
	derived := model.DerivedMissPenalty(model.PaperGlibc(), model.PaperMimalloc())
	var b strings.Builder
	fmt.Fprintf(&b, "Analytical model (paper §4.1), exact paper inputs:\n")
	fmt.Fprintf(&b, "  malloc calls:                %d\n", in.MallocCalls)
	fmt.Fprintf(&b, "  free calls:                  %d\n", in.FreeCalls)
	fmt.Fprintf(&b, "  total calls:                 %.0f\n", in.Calls())
	fmt.Fprintf(&b, "  atomic RMW latency:          %.0f cycles [3]\n", in.AtomicCycles)
	fmt.Fprintf(&b, "  added cycles (offload sync): %s   (paper: ~75e9)\n", report.Sci(in.AddedCycles()))
	fmt.Fprintf(&b, "  derived miss penalty:        %.1f cycles (paper states 214)\n", derived)
	fmt.Fprintf(&b, "  break-even miss reduction:   %.4f per call (paper: 1.25)\n", in.BreakEvenMissReduction())
	fmt.Fprintf(&b, "\n  break-even vs atomic cost sweep [3,26]:\n")
	costs := []float64{20, 40, 67, 100, 200, 400, 700}
	for i, v := range in.SweepBreakEven(costs) {
		fmt.Fprintf(&b, "    %3.0f-cycle RMW -> %.3f misses/call\n", costs[i], v)
	}
	return Outcome{ID: "model", Text: b.String()}
}

// AblateCore compares offloading to a symmetric big core vs a
// near-memory core (paper §3.2).
func AblateCore(s Scale) Outcome {
	w := func() workload.Workload { return table3Xalanc(s) }
	results := runSet(w, []string{"nextgen", "nextgen-nearmem"})
	text := report.CounterTable("Ablation: offload target core type (application cores)", results)
	for _, r := range results {
		text += fmt.Sprintf("%s server core: cycles=%s L1miss=%s LLCmiss=%s\n",
			r.Allocator, report.Sci(float64(r.Server.Cycles)),
			report.Sci(float64(r.Server.L1Misses)),
			report.Sci(float64(r.Server.LLCLoadMisses+r.Server.LLCStoreMisses)))
	}
	return Outcome{ID: "ablate-core", Results: results, Text: text}
}

// Sensitivity reproduces the §1 claim that allocation-intensive
// microbenchmarks (xmalloc, cache-scratch) swing >10x with the
// allocator.
func Sensitivity(s Scale) Outcome {
	wnames := []string{"xmalloc", "cache-scratch"}
	nk := len(harness.ClassicKinds)
	all := runAll(len(wnames)*nk, func(i int) harness.Result {
		var w workload.Workload
		if wnames[i/nk] == "xmalloc" {
			w = &workload.Xmalloc{NThreads: 4, OpsPerThread: s.XmallocOps, TouchBytes: 128, Seed: 3}
		} else {
			w = &workload.CacheScratch{NThreads: 4, ObjSize: 8, Rounds: s.ScratchRounds, Inner: 50}
		}
		return run(harness.Options{Allocator: harness.ClassicKinds[i%nk], Workload: w})
	})
	var b strings.Builder
	for wi, wname := range wnames {
		labels := make([]string, 0, nk)
		values := make([]float64, 0, nk)
		for ki, kind := range harness.ClassicKinds {
			labels = append(labels, kind)
			values = append(values, float64(all[wi*nk+ki].WallCycles))
		}
		b.WriteString(report.Bars(fmt.Sprintf("Sensitivity: %s wall cycles by allocator", wname), labels, values))
		b.WriteByte('\n')
	}
	return Outcome{ID: "sensitivity", Results: all, Text: b.String()}
}

// All runs every experiment at the given scale.
func All(s Scale) []Outcome {
	return []Outcome{
		Figure1(s), Table1(s), Table2(s), Table3(s), Model(),
		AblateLayout(s), AblateCore(s), AblateTransport(s),
		Sensitivity(s),
		AblateGC(s), AblateFaaS(s), AblateGPU(s), AblateScaling(s),
		AblateRoom(s), FaultSweep(s), FleetSweep(s), SLOSweep(s),
		FailoverSweep(s),
	}
}
