// Command ngm-bench regenerates every table and figure in the paper's
// evaluation (see DESIGN.md §5 for the experiment index).
//
// Usage:
//
//	ngm-bench [-scale quick|full] [-parallel N] [experiment ...]
//
// With no experiment arguments it runs everything. Experiments:
// figure1, table1, table2, table3, model, ablate-layout, ablate-core,
// ablate-transport, sensitivity (and more; see -list).
//
// Independent experiments — and the independent simulated machines
// inside each one — are fanned out across up to -parallel host cores.
// Every machine is bit-deterministic in isolation, so the results and
// the output order are identical at any parallelism level; only the
// wall time changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/experiments"
	"nextgenmalloc/internal/metrics"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/timeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultTimelineInterval is the sampling interval -chrome-trace implies
// when -timeline is not given explicitly.
const defaultTimelineInterval = 50000

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ngm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "experiment scale: quick or full")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonPath := fs.String("json", "", "also write raw results (PMU counters per run) as JSON to this file")
	metricsPath := fs.String("metrics", "", "write machine-readable results ("+metrics.Schema+") to this file")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max simulated machines running concurrently (1 = serial)")
	prealloc := fs.String("prealloc", "", "override NextGen prealloc policy for standard experiments: off, static, or adaptive (empty = per-kind default)")
	layoutSpec := fs.String("layout", "", "override NextGen metadata layout for standard experiments: segregated, aggregated, or compact (empty = per-kind default)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a host heap profile to this file at exit")
	faultSpec := fs.String("fault", "", "inject offload faults on every standard-experiment run: ;-separated plans, each a comma list of shard/seed/stall-len/stall-start/stall-period/drop/corrupt/slow key=value pairs (empty = none)")
	resSpec := fs.String("resilience", "", "offload degradation policy for standard-experiment runs: off, on/default, or a comma list of timeout/retries/backoff/fallback/probe/max-request key=value pairs (empty = kind default)")
	failoverSpec := fs.String("failover", "", "fleet malloc failover for standard-experiment runs: off, on/default, or the consecutive-timeout threshold before a client re-homes (empty = off; the failover-sweep owns its own policy)")
	timelineIv := fs.Uint64("timeline", 0, "sample a cycle-interval timeline every N cycles on every run (0 = off; implied by -chrome-trace)")
	tracePath := fs.String("chrome-trace", "", "write all runs as one Chrome trace-event JSON file (chrome://tracing / Perfetto)")
	warp := fs.Bool("warp", true, "skip provably-idle wait windows in the scheduler (bit-identical counters; -warp=false forces fully-stepped execution)")
	quantum := fs.Int64("quantum", 64, "scheduler lease slack in cycles (must be > 0)")
	servers := fs.Int("servers", 1, "offload server shard count for standard-experiment runs (the fleet-sweep owns its per-cell topology)")
	schedSpec := fs.String("sched", "", "offload ring service order for standard-experiment runs: fixed-scan, round-robin, doorbell-priority, or batch-drain (empty = fixed-scan)")
	partSpec := fs.String("partition", "", "fleet shard partition for standard-experiment runs: client or class (empty = client)")
	sloSpec := fs.String("slo", "", "per-tenant SLO tracking on every standard-experiment run: off, on/default, or a comma list of window/interactive/bulk/spans/target-ppm key=value pairs (empty = off; the slo-sweep owns its own tracker)")
	tenants := fs.Int("tenants", 0, "override the slo-sweep's tenant-count axis (0 = default axis)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *quantum <= 0 {
		fmt.Fprintf(stderr, "ngm-bench: -quantum must be > 0 (got %d)\n", *quantum)
		return 2
	}
	mcfg := sim.ScaledConfig()
	mcfg.Warp = *warp
	mcfg.Quantum = uint64(*quantum)
	experiments.SetMachine(&mcfg)

	tune, err := experiments.ParseTransport(*prealloc)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	experiments.SetTransport(tune)

	layoutTune, err := experiments.ParseLayout(*layoutSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	experiments.SetLayout(layoutTune)

	faultPlans, err := experiments.ParseFaults(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	resilience, err := experiments.ParseResilience(*resSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	failoverAfter, err := experiments.ParseFailover(*failoverSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	experiments.SetFaults(faultPlans, experiments.WithFailover(resilience, failoverAfter))

	sched, err := core.ParseSched(*schedSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	part, err := core.ParsePartition(*partSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	if *servers < 0 {
		fmt.Fprintf(stderr, "ngm-bench: negative server count %d\n", *servers)
		return 2
	}
	experiments.SetFleet(*servers, sched, part)

	sloOpt, err := experiments.ParseSLO(*sloSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	experiments.SetSLO(sloOpt)
	if *tenants < 0 {
		fmt.Fprintf(stderr, "ngm-bench: negative tenant count %d\n", *tenants)
		return 2
	}
	experiments.SetTenants(*tenants)

	interval := *timelineIv
	if interval == 0 && *tracePath != "" {
		interval = defaultTimelineInterval
	}
	experiments.SetTimeline(interval)

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "ngm-bench: unknown scale %q\n", *scaleName)
		return 2
	}

	runners := map[string]func() experiments.Outcome{
		"figure1":          func() experiments.Outcome { return experiments.Figure1(scale) },
		"table1":           func() experiments.Outcome { return experiments.Table1(scale) },
		"table2":           func() experiments.Outcome { return experiments.Table2(scale) },
		"table3":           func() experiments.Outcome { return experiments.Table3(scale) },
		"model":            func() experiments.Outcome { return experiments.Model() },
		"ablate-layout":    func() experiments.Outcome { return experiments.AblateLayout(scale) },
		"ablate-core":      func() experiments.Outcome { return experiments.AblateCore(scale) },
		"ablate-transport": func() experiments.Outcome { return experiments.AblateTransport(scale) },
		"sensitivity":      func() experiments.Outcome { return experiments.Sensitivity(scale) },
		"ablate-gc":        func() experiments.Outcome { return experiments.AblateGC(scale) },
		"ablate-faas":      func() experiments.Outcome { return experiments.AblateFaaS(scale) },
		"ablate-gpu":       func() experiments.Outcome { return experiments.AblateGPU(scale) },
		"ablate-scaling":   func() experiments.Outcome { return experiments.AblateScaling(scale) },
		"ablate-room":      func() experiments.Outcome { return experiments.AblateRoom(scale) },
		"fault-sweep":      func() experiments.Outcome { return experiments.FaultSweep(scale) },
		"fleet-sweep":      func() experiments.Outcome { return experiments.FleetSweep(scale) },
		"slo-sweep":        func() experiments.Outcome { return experiments.SLOSweep(scale) },
		"failover-sweep":   func() experiments.Outcome { return experiments.FailoverSweep(scale) },
	}
	order := []string{
		"figure1", "table1", "table2", "table3", "model",
		"ablate-layout", "ablate-core", "ablate-transport",
		"sensitivity",
		"ablate-gc", "ablate-faas", "ablate-gpu", "ablate-scaling", "ablate-room",
		"fault-sweep", "fleet-sweep", "slo-sweep", "failover-sweep",
	}

	if *list {
		for _, id := range order {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = order
	}
	// Validate every id before running anything: a typo late in the list
	// must not throw away minutes of completed experiments.
	for _, id := range ids {
		if _, ok := runners[id]; !ok {
			fmt.Fprintf(stderr, "ngm-bench: unknown experiment %q (try -list)\n", id)
			return 2
		}
	}

	if *parallel < 1 {
		fmt.Fprintf(stderr, "ngm-bench: -parallel must be >= 1\n")
		return 2
	}
	experiments.SetParallelism(*parallel)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "ngm-bench: close %s: %v\n", *cpuProfile, err)
			}
		}()
	}

	outcomes := runExperiments(ids, runners, scale, *parallel, stdout, stderr)

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, outcomes); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "raw results written to %s\n", *jsonPath)
	}

	if *tracePath != "" {
		if err := writeChromeTrace(*tracePath, outcomes); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace written to %s\n", *tracePath)
	}

	if *metricsPath != "" {
		var exps []metrics.Experiment
		for _, out := range outcomes {
			if len(out.Results) == 0 {
				continue // synthetic experiments (model) carry no PMU runs
			}
			exps = append(exps, metrics.FromResults(out.ID, out.Results))
		}
		if err := metrics.NewFile(exps...).WriteFile(*metricsPath); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsPath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: close %s: %v\n", *memProfile, err)
			return 1
		}
	}
	return 0
}

// runExperiments executes the selected experiments and prints each
// outcome in selection order. At -parallel 1 the loop streams: each
// experiment prints as soon as it finishes. Above 1 all experiments
// launch at once (their machine fan-out is bounded by the shared
// semaphore in internal/experiments), completions are announced on
// stderr, and stdout still renders strictly in order.
func runExperiments(ids []string, runners map[string]func() experiments.Outcome, scale experiments.Scale, parallel int, stdout, stderr io.Writer) []experiments.Outcome {
	outcomes := make([]experiments.Outcome, len(ids))
	elapsed := make([]time.Duration, len(ids))
	if parallel == 1 {
		for i, id := range ids {
			start := time.Now()
			outcomes[i] = runners[id]()
			elapsed[i] = time.Since(start)
			printOutcome(stdout, outcomes[i], scale, elapsed[i])
		}
		return outcomes
	}
	done := make([]chan struct{}, len(ids))
	for i := range ids {
		done[i] = make(chan struct{})
	}
	for i, id := range ids {
		go func(i int, id string) {
			defer close(done[i])
			start := time.Now()
			outcomes[i] = runners[id]()
			elapsed[i] = time.Since(start)
			fmt.Fprintf(stderr, "ngm-bench: %s done (%s)\n", id, elapsed[i].Round(time.Millisecond))
		}(i, id)
	}
	for i := range ids {
		<-done[i]
		printOutcome(stdout, outcomes[i], scale, elapsed[i])
	}
	return outcomes
}

func printOutcome(w io.Writer, out experiments.Outcome, scale experiments.Scale, d time.Duration) {
	fmt.Fprintf(w, "=== %s (scale=%s) ===\n%s\n[%s elapsed]\n\n", out.ID, scale.Name, out.Text, d.Round(time.Millisecond))
}

// writeChromeTrace bundles every sampled run of every outcome into one
// multi-process trace file (one pid per run).
func writeChromeTrace(path string, outcomes []experiments.Outcome) error {
	var runs []timeline.TraceRun
	for _, out := range outcomes {
		for _, r := range out.Results {
			if r.Timeline == nil {
				continue
			}
			tr := timeline.TraceRun{
				Name:       fmt.Sprintf("%s/%s/%s", out.ID, r.Allocator, r.Workload),
				Series:     r.Timeline,
				Latency:    r.Latency,
				ServerCore: r.ServerCore,
			}
			if r.SLO != nil {
				tr.Tenants = r.SLO.TraceSpans()
			}
			tr.Failover = r.Failover.TraceEvents()
			runs = append(runs, tr)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = timeline.WriteChromeTrace(f, runs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, outcomes []experiments.Outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(outcomes); err != nil {
		f.Close()
		return fmt.Errorf("encode: %w", err)
	}
	return f.Close()
}
