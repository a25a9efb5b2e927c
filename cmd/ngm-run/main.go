// Command ngm-run executes one (allocator, workload) pair on the
// simulated machine and prints the PMU counters, the per-class miss
// attribution, allocator statistics, and kernel accounting.
//
// Usage:
//
//	ngm-run -alloc mimalloc -workload xalanc -ops 100000
//	ngm-run -alloc nextgen -workload xmalloc -threads 4 -metrics out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/experiments"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/metrics"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/timeline"
	"nextgenmalloc/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sh6benchBatch is the fixed batch size ngm-run configures; -ops below
// one batch would silently truncate to zero passes.
const sh6benchBatch = 100

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ngm-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("alloc", "nextgen", "allocator: "+harness.KindHelp)
	wname := fs.String("workload", "xalanc", "workload: xalanc, xmalloc, cache-scratch, cache-thrash, larson, churn, sh6bench, faas, service")
	ops := fs.Int("ops", 100000, "operation count (total or per thread, workload-dependent)")
	threads := fs.Int("threads", 1, "worker thread count (multi-thread workloads)")
	seed := fs.Uint64("seed", 1, "workload seed")
	tenants := fs.Int("tenants", 8, "tenant count for the service workload (ignored by other workloads)")
	metricsPath := fs.String("metrics", "", "write machine-readable results ("+metrics.Schema+") to this file")
	runFlags := experiments.RunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate everything up front: a bad flag must fail fast with a
	// usage error, not panic mid-run or silently do no work.
	if _, err := harness.KindConfig(*kind); err != nil {
		fmt.Fprintf(stderr, "ngm-run: %v\n", err)
		return 2
	}
	env, tracePath, err := runFlags()
	if err != nil {
		fmt.Fprintf(stderr, "ngm-run: %v\n", err)
		return 2
	}
	base := env.Base
	if *tenants < 1 {
		fmt.Fprintf(stderr, "ngm-run: -tenants must be >= 1 (got %d)\n", *tenants)
		return 2
	}
	serverKeys := strings.Contains(env.Keys, "sched=") || strings.Contains(env.Keys, "partition=")
	if (base.Servers != 1 || serverKeys) && !harness.OffloadKind(*kind) {
		fmt.Fprintf(stderr, "ngm-run: -servers/-sched/-partition target the offload path; %q runs no offload server\n", *kind)
		return 2
	}
	spec := harness.WithKeys(*kind, env.Keys)
	if env.Keys != "" && spec == *kind {
		// WithKeys leaves a classic kind as it is: the keys would do nothing.
		fmt.Fprintf(stderr, "ngm-run: -prealloc/-layout are NextGen kind-spec keys; %q takes no keys\n", *kind)
		return 2
	}
	cfg, err := harness.KindConfig(spec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-run: %v\n", err)
		return 2
	}
	if len(base.FaultPlans) > 0 && !cfg.Offload {
		fmt.Fprintf(stderr, "ngm-run: -fault targets the offload path; %q runs no offload server\n", *kind)
		return 2
	}
	if base.Resilience != nil && base.Resilience.FailoverAfter > 0 && base.Servers < 2 {
		fmt.Fprintf(stderr, "ngm-run: -failover re-homes across fleet shards; it needs -servers >= 2 (got %d)\n", base.Servers)
		return 2
	}
	if cfg.Partition == core.ByClass && base.Servers < 2 {
		fmt.Fprintf(stderr, "ngm-run: partition=class splits clients across fleet shards; it needs -servers >= 2 (got %d)\n", base.Servers)
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(stderr, "ngm-run: -threads must be >= 1 (got %d)\n", *threads)
		return 2
	}
	if *ops < 1 {
		fmt.Fprintf(stderr, "ngm-run: -ops must be >= 1 (got %d)\n", *ops)
		return 2
	}
	if *wname == "sh6bench" && *ops < sh6benchBatch {
		fmt.Fprintf(stderr, "ngm-run: sh6bench needs -ops >= %d (one batch); got %d\n", sh6benchBatch, *ops)
		return 2
	}
	if *wname == "sh6bench" && *ops%sh6benchBatch != 0 {
		// sh6bench runs whole batches; flag the remainder instead of
		// silently dropping it.
		fmt.Fprintf(stderr, "ngm-run: warning: sh6bench runs whole %d-op batches; -ops %d truncated to %d\n",
			sh6benchBatch, *ops, (*ops/sh6benchBatch)*sh6benchBatch)
	}

	var w workload.Workload
	switch *wname {
	case "xalanc":
		x := workload.DefaultXalanc(*ops)
		x.Seed = *seed
		w = x
	case "xmalloc":
		w = &workload.Xmalloc{NThreads: *threads, OpsPerThread: *ops, TouchBytes: 128, Seed: *seed}
	case "cache-scratch":
		w = &workload.CacheScratch{NThreads: *threads, ObjSize: 8, Rounds: *ops, Inner: 50}
	case "cache-thrash":
		w = &workload.CacheThrash{NThreads: *threads, ObjSize: 8, Rounds: *ops, Inner: 50}
	case "larson":
		w = &workload.Larson{NThreads: *threads, SlotsPerThread: 4096, RoundsPerThread: *ops, MinSize: 16, MaxSize: 512, Seed: *seed}
	case "churn":
		w = &workload.Churn{NThreads: *threads, Slots: 20000, Rounds: *ops, MinSize: 16, MaxSize: 256, TouchBytes: 64, Seed: *seed}
	case "sh6bench":
		w = &workload.Sh6bench{NThreads: *threads, Passes: *ops / sh6benchBatch, BatchSize: sh6benchBatch, MinSize: 16, MaxSize: 512, RetainPasses: 5, Seed: *seed}
	case "faas":
		w = &workload.FaaS{Invocations: *ops, Profile: workload.DefaultFaaSProfile(), ComputePerAlloc: 40, Seed: *seed}
	case "service":
		w = &workload.Service{NWorkers: *threads, RequestsPerWorker: *ops, Tenants: *tenants, ChurnEvery: 4, MeanGapCycles: 60000, BurstLen: 4, Seed: *seed}
	default:
		fmt.Fprintf(stderr, "ngm-run: unknown workload %q\n", *wname)
		return 2
	}

	res, err := harness.RunE(env.Apply(harness.Options{Allocator: spec, Workload: w}))
	if err != nil {
		fmt.Fprintf(stderr, "ngm-run: %v\n", err)
		return 2
	}
	res.Allocator = *kind
	fmt.Fprint(stdout, report.CounterTable(fmt.Sprintf("%s on %s", *wname, *kind), []harness.Result{res}))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.AttributionTable("miss attribution (worker cores)", []harness.Result{res}))
	fmt.Fprintf(stdout, "\nwall cycles:    %s\n", report.Sci(float64(res.WallCycles)))
	fmt.Fprintf(stdout, "mallocs/frees:  %d / %d\n", res.AllocStats.MallocCalls, res.AllocStats.FreeCalls)
	fmt.Fprintf(stdout, "heap bytes:     %d (fragmentation %.3f)\n", res.AllocStats.HeapBytes, res.AllocStats.Fragmentation())
	fmt.Fprintf(stdout, "kernel:         %d mmap, %d brk, %d pages, %s cycles\n",
		res.Kernel.Mmap, res.Kernel.Brk, res.Kernel.Pages, report.Sci(float64(res.Kernel.Cycles)))
	if res.Warp.Windows > 0 {
		fmt.Fprintf(stdout, "time warp:      %d windows, %d rounds skipped, %s cycles (largest skip %d), %d parks, %d parked leases\n",
			res.Warp.Windows, res.Warp.Rounds, report.Sci(float64(res.Warp.CyclesWarped)), res.Warp.LargestSkip,
			res.Warp.Parks, res.Warp.ParkedLeases)
	}
	if res.Served > 0 {
		fmt.Fprintf(stdout, "offload server: %s cycles, %d ops served\n", report.Sci(float64(res.Server.Cycles)), res.Served)
	}
	if len(res.Servers) > 1 {
		for i, sv := range res.Servers {
			busy := float64(0)
			if tot := sv.BusyCycles + sv.IdleCycles; tot > 0 {
				busy = float64(sv.BusyCycles) / float64(tot)
			}
			var gap uint64
			for _, cl := range sv.Clients {
				if cl.MaxGapCycles > gap {
					gap = cl.MaxGapCycles
				}
			}
			fmt.Fprintf(stdout, "  server %d (core %d): %d ops served, %.1f%% busy, %d clients, max service gap %s cycles\n",
				i, sv.Core, sv.Served, 100*busy, len(sv.Clients), report.Sci(float64(gap)))
		}
	}
	if tel := res.Offload; tel != nil {
		busy := float64(0)
		if tot := tel.ServerBusyCycles + tel.ServerIdleCycles; tot > 0 {
			busy = float64(tel.ServerBusyCycles) / float64(tot)
		}
		fmt.Fprintf(stdout, "rings:          %d pushes (%d full retries, %s stall cycles); server %.1f%% busy\n",
			tel.MallocRing.Pushes+tel.FreeRing.Pushes,
			tel.MallocRing.FullRetries+tel.FreeRing.FullRetries,
			report.Sci(float64(tel.MallocRing.StallCycles+tel.FreeRing.StallCycles)),
			100*busy)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.TransportTable("offload transport telemetry", []harness.Result{res}))
	}
	if res.Resilience != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.ResilienceTable("offload degradation telemetry", []harness.Result{res}))
		if err := res.CheckLiveness(); err != nil {
			fmt.Fprintf(stderr, "ngm-run: liveness: %v\n", err)
			return 1
		}
	}
	if res.Failover != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.FailoverTable("fleet failover telemetry", res.Failover))
	}
	if res.Timeline != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.TimelineTable("timeline (worker cores, per sample interval)", res.Timeline, res.ServerCore))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.LatencyTable("offload request latency (cycles)", res.Latency))
	}
	if res.SLO != nil {
		if !res.SLO.HasData() {
			fmt.Fprintf(stderr, "ngm-run: warning: -slo armed but %q reports no tenant requests (only the service workload does)\n", *wname)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.SLOTable("per-tenant SLO ledger (end-to-end cycles)", res.SLO))
	}

	if tracePath != "" {
		if !res.Latency.HasSpans() {
			fmt.Fprintf(stderr, "ngm-run: warning: %s records no offload spans (not an offload allocator); the trace carries counter series only\n", *kind)
		}
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "ngm-run: %v\n", err)
			return 1
		}
		err = timeline.WriteChromeTrace(f, []timeline.TraceRun{res.TraceRun(fmt.Sprintf("%s/%s", *kind, *wname))})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "ngm-run: write %s: %v\n", tracePath, err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace written to %s\n", tracePath)
	}

	if *metricsPath != "" {
		f := metrics.NewFile(metrics.FromResults("ngm-run", []harness.Result{res}))
		if err := f.WriteFile(*metricsPath); err != nil {
			fmt.Fprintf(stderr, "ngm-run: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsPath)
	}
	return 0
}
