// Command bench is the repository's benchmark: four workloads measured on
// two clocks (simulated cycles, which must repeat exactly, and host
// throughput, which is noisy), with a per-layer ledger recorded from
// outside the program. README.md has the design; BENCHMARK.json the
// contract.
//
//	go run ./bench                       every workload, both clocks, all layers
//	go run ./bench -workload xalanc_offload -trace 0
//	go run ./bench -layers-only          host microbenchmarks only
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// header records where and how a result was measured.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// metricValue is one reported number. Reps holds a host metric's
// per-rep readings; Unresolved marks one whose readings span more than
// unresolvedSpread.
type metricValue struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Reps       []float64 `json:"reps,omitempty"`
	Unresolved bool      `json:"unresolved,omitempty"`
}

type workloadDoc struct {
	Why         string                 `json:"why"`
	WallSeconds float64                `json:"wall_s"`
	TimedReps   int                    `json:"timed_reps"`
	Attempted   uint64                 `json:"ops_attempted"`
	Failed      uint64                 `json:"ops_failed"`
	FirstFail   string                 `json:"first_failure,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

// resultDoc is bench/out/result.json, the input of -compare.
type resultDoc struct {
	Header    header                  `json:"header"`
	Workloads map[string]*workloadDoc `json:"workloads,omitempty"`
	HostLayer map[string]metricValue  `json:"host_layers,omitempty"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	fmt.Sscan(string(b), &v)
	return v
}

func evalAll(defs []metricDef, l *ledger) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, reps := d.eval(l)
		out[d.name] = metricValue{Value: v, Unit: d.unit, Reps: reps, Unresolved: spreadOf(reps) > unresolvedSpread}
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(w, "  %-40s %14.6g %-10s", d.name, v.Value, v.Unit)
		switch {
		case v.Unresolved:
			fmt.Fprintf(w, " unresolved: %d reps span max/min %.2f", len(v.Reps), spreadOf(v.Reps))
		case len(v.Reps) > 0:
			fmt.Fprintf(w, " median of %d reps, min %.6g max %.6g", len(v.Reps), minOf(v.Reps), maxOf(v.Reps))
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type config struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      string // "0": end-to-end only, "1": per-layer only, "both"
	scale      scale
	outDir     string
	layersOnly bool
}

// run measures the selected workloads and reports them; it returns the
// document it wrote.
func run(cfg config, stdout io.Writer) (*resultDoc, error) {
	doc := &resultDoc{
		Header: header{
			Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg1: loadAvg1(),
			Seed: cfg.seed, Scale: cfg.scale.name, Seconds: cfg.seconds,
		},
		Workloads: map[string]*workloadDoc{},
	}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, load %.2f, seed %d, scale %s\n",
		doc.Header.Commit, doc.Header.GoVersion, doc.Header.NProc, doc.Header.GOMAXPROCS, doc.Header.LoadAvg1, cfg.seed, cfg.scale.name)

	specs := workloads
	if cfg.workload != "" {
		spec, ok := findWorkload(cfg.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		specs = []workloadSpec{spec}
	}
	wantEnd, wantLayers := cfg.trace != "1", cfg.trace != "0"

	var micro map[string]float64
	if wantLayers || cfg.layersOnly {
		micro = runMicro(cfg.scale)
	}
	if cfg.layersOnly {
		defs := microMetrics()
		doc.HostLayer = evalAll(defs, &ledger{micro: micro})
		fmt.Fprintln(stdout, "== host microbenchmarks")
		printMetrics(stdout, defs, doc.HostLayer)
		return doc, writeJSON(filepath.Join(cfg.outDir, "result.json"), doc)
	}

	for _, spec := range specs {
		// Per-layer-only runs need untraced reps just to have a baseline
		// and the simulated counters: two, not a timed window.
		seconds, minReps := cfg.seconds, cfg.scale.minReps
		if !wantEnd {
			seconds, minReps = 0, min(2, minReps)
		}
		m, err := measure(spec, cfg.seed, cfg.scale, seconds, minReps, wantLayers)
		if err != nil {
			return nil, err
		}
		l := ledgerOf(m)
		l.micro = micro
		wd := &workloadDoc{Why: spec.why, WallSeconds: m.wallSeconds, TimedReps: len(m.timed)}
		wd.Attempted, wd.Failed, wd.FirstFail = m.opsAttempted()
		doc.Workloads[spec.name] = wd

		fmt.Fprintf(stdout, "== %s: %d timed reps, %.1f s\n", spec.name, len(m.timed), m.wallSeconds)
		fmt.Fprintf(stdout, "  %-40s %14.6g %-10s %d failed / %d attempted allocator calls\n",
			"op_fail_pct", pct(wd.Failed, wd.Attempted), "%", wd.Failed, wd.Attempted)
		if wd.FirstFail != "" {
			fmt.Fprintf(stdout, "  first failure: %s\n", wd.FirstFail)
		}
		if wantEnd {
			wd.EndToEnd = evalAll(endToEnd, l)
			fmt.Fprintf(stdout, "  %-40s %14d %-10s behind sim_req_p50/p99_cycles\n", "request samples", len(l.requests), "count")
			printMetrics(stdout, endToEnd, wd.EndToEnd)
		}
		if wantLayers {
			wd.PerLayer = evalAll(perLayer, l)
			fmt.Fprintln(stdout, "  -- per layer (model.*: the paper's figures are the only reference, the simulator is otherwise unvalidated)")
			printMetrics(stdout, perLayer, wd.PerLayer)
			trace := traceOf(spec.name, cfg.seed, m.warm, *m.sampled)
			if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+spec.name+".json"), trace); err != nil {
				return nil, err
			}
		}
	}
	return doc, writeJSON(filepath.Join(cfg.outDir, "result.json"), doc)
}

// driverLine is the last line of standard output in single-workload
// runs, in the form BENCHMARK.json's driver reads.
func driverLine(wd *workloadDoc) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, set := range []map[string]metricValue{wd.EndToEnd, wd.PerLayer} {
		for name, v := range set {
			metrics[name] = mv{v.Value, v.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{true, wd.Attempted, wd.Failed, metrics})
	return string(b)
}

func main() {
	var cfg config
	var scaleName string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all four)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "feeds every workload generator's seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "timed window per workload; at least three reps are always timed")
	flag.StringVar(&cfg.trace, "trace", "both", "0: end-to-end metrics only, 1: per-layer metrics only, both")
	flag.StringVar(&scaleName, "scale", "full", "full or smoke")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	flag.BoolVar(&cfg.layersOnly, "layers-only", false, "run only the host microbenchmarks")
	flag.BoolVar(&compare, "compare", false, "compare two result.json files: -compare base.json new.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			os.Exit(2)
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[scaleName]
	if !ok || flag.NArg() != 0 || (cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both") {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg.scale = sc
	doc, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if cfg.workload != "" && !cfg.layersOnly {
		fmt.Println(driverLine(doc.Workloads[cfg.workload]))
	}
}
