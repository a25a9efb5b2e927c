// Command ngm-trace records a workload's allocation trace to a file and
// replays traces against any allocator, so identical request streams can
// be compared across allocators (or archived as regression inputs).
//
// Usage:
//
//	ngm-trace record -workload xalanc -ops 50000 -o xalanc.ngt
//	ngm-trace replay -i xalanc.ngt -alloc ptmalloc2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/trace"
	"nextgenmalloc/internal/workload"
)

// replayWorkload drives a recorded trace as a single-threaded workload.
type replayWorkload struct {
	tr *trace.Trace
}

func (r *replayWorkload) Name() string                           { return "trace-replay" }
func (r *replayWorkload) Threads() int                           { return 1 }
func (r *replayWorkload) Setup(t *sim.Thread, a alloc.Allocator) {}
func (r *replayWorkload) Run(t *sim.Thread, part int, a alloc.Allocator) {
	trace.Replay(t, a, r.tr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "record":
		return record(args[1:], stdout, stderr)
	case "replay":
		return replay(args[1:], stdout, stderr)
	}
	return usage(stderr)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: ngm-trace record -workload <name> -ops <n> -o <file>")
	fmt.Fprintln(stderr, "       ngm-trace replay -i <file> -alloc <kind>")
	return 2
}

func record(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "xalanc", "workload to record (xalanc, churn)")
	ops := fs.Int("ops", 50000, "operation count")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "trace.ngt", "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ops < 1 {
		fmt.Fprintf(stderr, "ngm-trace: -ops must be >= 1 (got %d)\n", *ops)
		return 2
	}

	var w workload.Workload
	switch *wname {
	case "xalanc":
		x := workload.DefaultXalanc(*ops)
		x.Seed = *seed
		w = x
	case "churn":
		w = &workload.Churn{NThreads: 1, Slots: 20000, Rounds: *ops, MinSize: 16, MaxSize: 256, Seed: *seed}
	default:
		fmt.Fprintf(stderr, "ngm-trace: workload %q is not recordable (single-threaded only)\n", *wname)
		return 2
	}

	var rec *trace.Recorder
	harness.Run(harness.Options{
		Allocator: "bump",
		Workload:  w,
		Wrap: func(a alloc.Allocator) alloc.Allocator {
			rec = trace.NewRecorder(a)
			return rec
		},
	})
	if rec == nil {
		// Wrap always runs for a workload that completed Setup; a nil
		// recorder means the harness never built the allocator.
		fmt.Fprintf(stderr, "ngm-trace: internal error: recorder was never attached\n")
		return 1
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-trace: %v\n", err)
		return 1
	}
	if err := rec.Trace().Encode(f); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "ngm-trace: encode: %v\n", err)
		return 1
	}
	// Close errors are the last chance to see a failed flush (ENOSPC);
	// swallowing them would archive a truncated trace.
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "ngm-trace: close %s: %v\n", *out, err)
		return 1
	}
	fmt.Fprintf(stdout, "recorded %d ops (%d mallocs) from %s to %s\n",
		len(rec.Trace().Ops), rec.Trace().Mallocs(), w.Name(), *out)
	return 0
}

func replay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "trace.ngt", "input trace file")
	kind := fs.String("alloc", "mimalloc", "allocator to replay against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := harness.KindConfig(*kind); err != nil {
		fmt.Fprintf(stderr, "ngm-trace: %v\n", err)
		return 2
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(stderr, "ngm-trace: %v\n", err)
		return 1
	}
	tr, err := trace.Decode(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "ngm-trace: decode: %v\n", err)
		return 1
	}
	res := harness.Run(harness.Options{Allocator: *kind, Workload: &replayWorkload{tr: tr}})
	fmt.Fprint(stdout, report.CounterTable(fmt.Sprintf("replay of %s on %s", *in, *kind), []harness.Result{res}))
	fmt.Fprintf(stdout, "\nops replayed: %d, fragmentation %.3f\n", len(tr.Ops), res.AllocStats.Fragmentation())
	return 0
}
