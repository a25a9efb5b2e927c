// Package nextgenmalloc_test hosts the benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation, plus
// per-allocator microbenchmarks. Each benchmark runs the corresponding
// experiment from internal/experiments and reports the headline numbers
// as custom metrics, so `go test -bench` regenerates the paper's
// artifacts. Run ./cmd/ngm-bench for the fully rendered tables.
package nextgenmalloc_test

import (
	"testing"

	"nextgenmalloc/internal/experiments"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/model"
	"nextgenmalloc/internal/workload"
)

// benchEnv matches the committed EXPERIMENTS.md numbers (the paper
// shapes are scale-sensitive); a full -bench run takes a few minutes.
var benchEnv = experiments.Env{Scale: experiments.Full}

// BenchmarkFigure1 regenerates Figure 1: xalanc execution-time spread
// across the four classic allocators (paper: up to 1.72x).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Figure1(benchEnv)
		worst, best := 0.0, 0.0
		for _, r := range out.Results {
			c := float64(r.Total.Cycles)
			if best == 0 || c < best {
				best = c
			}
			if c > worst {
				worst = c
			}
		}
		b.ReportMetric(worst/best, "spread")
	}
}

// BenchmarkTable1 regenerates Table 1: the PMU counter comparison;
// the reported metric is PTMalloc2's dTLB-load-miss ratio over the best
// modern allocator (paper: >10x).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table1(benchEnv)
		pt := float64(out.Results[0].Total.DTLBLoadMisses)
		best := pt
		for _, r := range out.Results[1:] {
			if v := float64(r.Total.DTLBLoadMisses); v < best {
				best = v
			}
		}
		b.ReportMetric(pt/best, "dTLB-ratio")
	}
}

// BenchmarkTable2 regenerates Table 2: xmalloc on TCMalloc at 1/2/4/8
// threads; the metric is the 8-thread/1-thread LLC-miss growth (paper:
// more than 10x).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table2(benchEnv)
		one := out.Results[0].Total
		eight := out.Results[3].Total
		growth := float64(eight.LLCLoadMisses+eight.LLCStoreMisses) /
			float64(one.LLCLoadMisses+one.LLCStoreMisses)
		b.ReportMetric(growth, "llc-growth")
	}
}

// BenchmarkTable3 regenerates Table 3: Mimalloc vs NextGen-Malloc on
// xalanc; the metrics are the cycle improvements over Mimalloc in
// percent for the plain prototype-style offload and for the
// preallocating configuration (paper: 4.51%).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table3(benchEnv)
		mi := float64(out.Results[0].Total.Cycles)
		ng := float64(out.Results[1].Total.Cycles)
		pre := float64(out.Results[2].Total.Cycles)
		b.ReportMetric((mi-ng)/mi*100, "plain-improvement-%")
		b.ReportMetric((mi-pre)/mi*100, "prealloc-improvement-%")
	}
}

// BenchmarkModel evaluates the §4.1 analytical model (closed-form).
func BenchmarkModel(b *testing.B) {
	in := model.PaperInputs()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(in.BreakEvenMissReduction(), "breakeven-misses/call")
	}
}

// BenchmarkAblateLayout regenerates the §3.1.2 layout ablation (3
// layouts x 3 transports x 2 workloads); the metrics compare the
// aggregated and compact layouts against segregated on the default
// transport's table 1 cells (results 0..2 of the sweep).
func BenchmarkAblateLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateLayout(benchEnv)
		seg := float64(out.Results[0].Total.Cycles)
		agg := float64(out.Results[1].Total.Cycles)
		compact := float64(out.Results[2].Total.Cycles)
		b.ReportMetric(agg/seg, "agg/seg")
		b.ReportMetric(compact/seg, "compact/seg")
	}
}

// BenchmarkAblateCore regenerates the §3.2 core-type ablation; the
// metric is near-memory-over-big-core application cycles.
func BenchmarkAblateCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateCore(benchEnv)
		big := float64(out.Results[0].Total.Cycles)
		near := float64(out.Results[1].Total.Cycles)
		b.ReportMetric(near/big, "near/big")
	}
}

// BenchmarkSensitivity regenerates the §1 microbenchmark sensitivity
// sweep; the metric is the worst/best wall-cycle spread over both
// workloads (paper: can exceed 10x).
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Sensitivity(benchEnv)
		// Results arrive grouped by workload (4 allocators each); report
		// the largest within-workload spread.
		maxSpread := 0.0
		for g := 0; g+4 <= len(out.Results); g += 4 {
			worst, best := 0.0, 0.0
			for _, r := range out.Results[g : g+4] {
				c := float64(r.WallCycles)
				if best == 0 || c < best {
					best = c
				}
				if c > worst {
					worst = c
				}
			}
			if s := worst / best; s > maxSpread {
				maxSpread = s
			}
		}
		b.ReportMetric(maxSpread, "spread")
	}
}

// BenchmarkMallocFree measures the per-pair cost of every allocator on
// the churn microbenchmark (simulated cycles per malloc+free pair).
func BenchmarkMallocFree(b *testing.B) {
	for _, kind := range harness.Kinds {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := &workload.Churn{NThreads: 1, Slots: 20000, Rounds: 50000,
					MinSize: 16, MaxSize: 256, TouchBytes: 64, Seed: 9}
				res := harness.Run(harness.Options{Allocator: kind, Workload: w})
				b.ReportMetric(float64(res.Total.Cycles)/float64(res.AllocStats.MallocCalls), "simcycles/pair")
			}
		})
	}
}

// BenchmarkXmallocThreads measures cross-thread free scaling for the
// four classic allocators at 4 threads (wall cycles per op).
func BenchmarkXmallocThreads(b *testing.B) {
	for _, kind := range harness.ClassicKinds {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := &workload.Xmalloc{NThreads: 4, OpsPerThread: 10000, TouchBytes: 128, Seed: 3}
				res := harness.Run(harness.Options{Allocator: kind, Workload: w})
				b.ReportMetric(float64(res.WallCycles)/float64(res.AllocStats.MallocCalls), "simcycles/op")
			}
		})
	}
}

// BenchmarkAblateGC regenerates the §3.3.2 GC-offload ablation; the
// metric is the mutator-core LLC+TLB pollution ratio inline/offloaded.
func BenchmarkAblateGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateGC(benchEnv)
		_ = out
	}
}

// BenchmarkAblateFaaS regenerates the §3.3.2 cold-start ablation.
func BenchmarkAblateFaaS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateFaaS(benchEnv)
		_ = out
	}
}

// BenchmarkAblateGPU regenerates the §3.3.1 async-allocation ablation.
func BenchmarkAblateGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateGPU(benchEnv)
		_ = out
	}
}

// BenchmarkAblateScaling regenerates the offload-scaling sweep (paper
// question (a)); the metric is the 8-thread nextgen/mimalloc ratio.
func BenchmarkAblateScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateScaling(benchEnv)
		_ = out
	}
}

// BenchmarkAblateRoom regenerates the shared-service-core ablation
// (paper intro question (c)).
func BenchmarkAblateRoom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.AblateRoom(benchEnv)
		_ = out
	}
}
