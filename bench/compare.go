package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// verdict judges one (metric, workload) pair. worsening is the share of
// the base by which the new value is worse (negative when it is better).
// A host metric whose readings on either side span more than
// unresolvedSpread is unresolved, unless every new reading beats every
// base reading.
func verdict(d metricDef, base, next metricValue) string {
	worseBy := next.Value - base.Value
	if d.higher {
		worseBy = -worseBy
	}
	if base.Unresolved || next.Unresolved {
		lo, hi := next.Reps, base.Reps // lower is better: new's worst < base's best
		if d.higher {
			lo, hi = base.Reps, next.Reps
		}
		if len(lo) > 0 && len(hi) > 0 && maxOf(lo) < minOf(hi) {
			return "better"
		}
		return "unresolved"
	}
	switch limit := d.bound * base.Value; {
	case worseBy > limit:
		return "worse"
	case worseBy < -limit:
		return "better"
	}
	return "same"
}

// opFailPct is compared alongside the end-to-end table: it is reported
// through the attempted/failed counts, and any increase is a regression.
var opFailPct = metricDef{name: "op_fail_pct", unit: "%", bound: 0}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both files and reports whether any is worse.
func compareFiles(basePath, nextPath string, w io.Writer) (anyWorse bool, err error) {
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	next, err := readResult(nextPath)
	if err != nil {
		return false, err
	}
	if base.Header.Seed != next.Header.Seed || base.Header.Scale != next.Header.Scale {
		fmt.Fprintf(w, "note: seeds or scales differ (%d/%s vs %d/%s): simulated metrics will not match exactly\n",
			base.Header.Seed, base.Header.Scale, next.Header.Seed, next.Header.Scale)
	}
	fmt.Fprintf(w, "%-26s %-18s %14s %14s %8s %6s  %s\n", "metric", "workload", "base", "new", "ratio", "bound", "verdict")
	for _, spec := range workloads {
		b, n := base.Workloads[spec.name], next.Workloads[spec.name]
		if b == nil || n == nil || b.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		row := func(d metricDef, bv, nv metricValue) {
			v := verdict(d, bv, nv)
			anyWorse = anyWorse || v == "worse"
			ratio := "-" // nothing to divide by
			if bv.Value != 0 {
				ratio = fmt.Sprintf("%.4f", nv.Value/bv.Value)
			}
			fmt.Fprintf(w, "%-26s %-18s %14.6g %14.6g %8s %5.0f%%  %s\n",
				d.name, spec.name, bv.Value, nv.Value, ratio, 100*d.bound, v)
		}
		for _, d := range endToEnd {
			row(d, b.EndToEnd[d.name], n.EndToEnd[d.name])
		}
		row(opFailPct,
			metricValue{Value: pct(b.Failed, b.Attempted)},
			metricValue{Value: pct(n.Failed, n.Attempted)})
	}
	return anyWorse, nil
}
