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
	"slices"
	"time"

	"nextgenmalloc/internal/experiments"
	"nextgenmalloc/internal/metrics"
	"nextgenmalloc/internal/timeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ngm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "experiment scale: quick or full")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonPath := fs.String("json", "", "also write raw results (PMU counters per run) as JSON to this file")
	metricsPath := fs.String("metrics", "", "write machine-readable results ("+metrics.Schema+") to this file")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max simulated machines running concurrently (1 = serial)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a host heap profile to this file at exit")
	tenants := fs.Int("tenants", 0, "override the slo-sweep's tenant-count axis (0 = default axis)")
	runFlags := experiments.RunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	env, tracePath, err := runFlags()
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}
	if *tenants < 0 {
		fmt.Fprintf(stderr, "ngm-bench: negative tenant count %d\n", *tenants)
		return 2
	}
	env.Tenants = *tenants

	switch *scaleName {
	case "quick":
		env.Scale = experiments.Quick
	case "full":
		env.Scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "ngm-bench: unknown scale %q\n", *scaleName)
		return 2
	}

	if *list {
		for _, x := range experiments.Registry {
			fmt.Fprintln(stdout, x.ID)
		}
		return 0
	}

	sel := experiments.Registry
	if ids := fs.Args(); len(ids) > 0 && !(len(ids) == 1 && ids[0] == "all") {
		// Validate every id before running anything: a typo late in the
		// list must not throw away minutes of completed experiments.
		sel = nil
		for _, id := range ids {
			i := slices.IndexFunc(experiments.Registry, func(x experiments.Experiment) bool { return x.ID == id })
			if i < 0 {
				fmt.Fprintf(stderr, "ngm-bench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			sel = append(sel, experiments.Registry[i])
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

	outcomes := runExperiments(sel, env, *parallel, stdout, stderr)

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, outcomes); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "raw results written to %s\n", *jsonPath)
	}

	if tracePath != "" {
		if err := writeChromeTrace(tracePath, outcomes); err != nil {
			fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace written to %s\n", tracePath)
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
func runExperiments(sel []experiments.Experiment, env experiments.Env, parallel int, stdout, stderr io.Writer) []experiments.Outcome {
	outcomes := make([]experiments.Outcome, len(sel))
	elapsed := make([]time.Duration, len(sel))
	if parallel == 1 {
		for i, x := range sel {
			start := time.Now()
			outcomes[i] = x.Run(env)
			elapsed[i] = time.Since(start)
			printOutcome(stdout, outcomes[i], env.Scale, elapsed[i])
		}
		return outcomes
	}
	done := make([]chan struct{}, len(sel))
	for i := range sel {
		done[i] = make(chan struct{})
	}
	for i, x := range sel {
		go func(i int, x experiments.Experiment) {
			defer close(done[i])
			start := time.Now()
			outcomes[i] = x.Run(env)
			elapsed[i] = time.Since(start)
			fmt.Fprintf(stderr, "ngm-bench: %s done (%s)\n", x.ID, elapsed[i].Round(time.Millisecond))
		}(i, x)
	}
	for i := range sel {
		<-done[i]
		printOutcome(stdout, outcomes[i], env.Scale, elapsed[i])
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
			runs = append(runs, r.TraceRun(fmt.Sprintf("%s/%s/%s", out.ID, r.Allocator, r.Workload)))
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
