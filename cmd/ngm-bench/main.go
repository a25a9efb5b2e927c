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
	if err := env.Check(); err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v\n", err)
		return 2
	}

	if *list {
		for _, x := range experiments.Registry {
			fmt.Fprintln(stdout, x.ID)
		}
		return 0
	}

	sel, err := selectExperiments(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "ngm-bench: %v (try -list)\n", err)
		return 2
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

	// Print each outcome in selection order as soon as it and every
	// earlier one have finished; above -parallel 1 the experiments all
	// run at once and completions are also announced on stderr.
	rendered := make([]string, len(sel))
	next := 0
	outcomes := experiments.RunSuite(sel, env, func(i int, out experiments.Outcome, d time.Duration) {
		d = d.Round(time.Millisecond)
		if *parallel > 1 {
			fmt.Fprintf(stderr, "ngm-bench: %s done (%s)\n", out.ID, d)
		}
		rendered[i] = fmt.Sprintf("=== %s (scale=%s) ===\n%s\n[%s elapsed]\n\n", out.ID, env.Scale.Name, out.Text, d)
		for ; next < len(sel) && rendered[next] != ""; next++ {
			fmt.Fprint(stdout, rendered[next])
		}
	})

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
		if err := experiments.Metrics(outcomes).WriteFile(*metricsPath); err != nil {
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

// selectExperiments resolves the command-line experiment ids: none, or
// the single id "all", selects the whole registry; otherwise each id in
// order. Every id is validated before anything runs, so a typo late in
// the list cannot throw away minutes of completed experiments.
func selectExperiments(ids []string) ([]experiments.Experiment, error) {
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		return experiments.Registry, nil
	}
	sel := make([]experiments.Experiment, 0, len(ids))
	for _, id := range ids {
		i := slices.IndexFunc(experiments.Registry, func(x experiments.Experiment) bool { return x.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		sel = append(sel, experiments.Registry[i])
	}
	return sel, nil
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
