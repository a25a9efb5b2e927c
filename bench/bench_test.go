package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var smoke struct {
	once sync.Once
	dir  string
	doc  *resultDoc
	err  error
}

// smokeRun runs every workload once at the smoke scale, both clocks and
// all layers. run fails on any correctness-gate violation — liveness,
// traced reps not reproducing the untraced counters, a broken span
// identity — so a nil error already says those hold.
func smokeRun(t *testing.T) (*resultDoc, string) {
	t.Helper()
	smoke.once.Do(func() {
		smoke.dir, smoke.err = os.MkdirTemp("", "bench-smoke")
		if smoke.err != nil {
			return
		}
		cfg := config{seed: 1, seconds: 0, trace: "both", scale: scales["smoke"], outDir: smoke.dir}
		smoke.doc, smoke.err = run(cfg, io.Discard)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.doc, smoke.dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smoke.dir != "" {
		os.RemoveAll(smoke.dir)
	}
	os.Exit(code)
}

// TestManifestMatchesOutput: every name BENCHMARK.json declares is
// emitted on every workload with the declared unit, and nothing else is.
func TestManifestMatchesOutput(t *testing.T) {
	mf := readManifest(t)
	doc, _ := smokeRun(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, bench runs %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest {%s, %q} != bench {%s, %q}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, declared []manifestMetric, defs []metricDef, got func(*workloadDoc) map[string]metricValue) {
		if len(declared) != len(defs) {
			t.Errorf("%s: manifest declares %d metrics, bench defines %d", kind, len(declared), len(defs))
		}
		byName := map[string]metricDef{}
		for _, d := range defs {
			byName[d.name] = d
		}
		for _, dm := range declared {
			d, ok := byName[dm.Name]
			switch {
			case !nameRE.MatchString(dm.Name):
				t.Errorf("%s %q: not a valid metric name", kind, dm.Name)
			case !ok:
				t.Errorf("%s %q: declared in BENCHMARK.json but not defined in bench", kind, dm.Name)
			case dm.Unit != d.unit || dm.Better != d.better():
				t.Errorf("%s %q: manifest {%s, %s} != bench {%s, %s}", kind, dm.Name, dm.Unit, dm.Better, d.unit, d.better())
			case kind == "end_to_end" && (dm.Bound == nil || *dm.Bound != d.bound):
				t.Errorf("%s %q: manifest bound %v != bench bound %v", kind, dm.Name, dm.Bound, d.bound)
			}
			delete(byName, dm.Name)
		}
		for name := range byName {
			t.Errorf("%s %q: defined in bench but missing from BENCHMARK.json", kind, name)
		}
		for _, w := range workloads {
			vals := got(doc.Workloads[w.name])
			if len(vals) != len(defs) {
				t.Errorf("%s on %s: %d metrics emitted, %d defined", kind, w.name, len(vals), len(defs))
			}
			for _, d := range defs {
				if v, ok := vals[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s %q on %s: emitted %+v (present %v)", kind, d.name, w.name, v, ok)
				}
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, func(w *workloadDoc) map[string]metricValue { return w.EndToEnd })
	check("per_layer", mf.PerLayer, perLayer, func(w *workloadDoc) map[string]metricValue { return w.PerLayer })

	for _, w := range workloads {
		wd := doc.Workloads[w.name]
		if wd.Attempted == 0 || wd.Failed != 0 {
			t.Errorf("%s: %d failed of %d attempted (%s)", w.name, wd.Failed, wd.Attempted, wd.FirstFail)
		}
		for _, d := range endToEnd {
			if wd.EndToEnd[d.name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s reads 0", w.name, d.name)
			}
		}
	}
}

// TestLedgerAddsUp: the region classes partition the application misses,
// and the failover workload is the only one that arms the fault layers.
func TestLedgerAddsUp(t *testing.T) {
	doc, _ := smokeRun(t)
	for _, w := range workloads {
		wd := doc.Workloads[w.name]
		var byRegion float64
		for _, cls := range []string{"user", "meta", "ring", "global"} {
			byRegion += wd.PerLayer["region."+cls+"_misses_per_op"].Value
		}
		if total := wd.EndToEnd["sim_app_misses_per_op"].Value; byRegion < total*(1-1e-9) || byRegion > total*(1+1e-9) {
			t.Errorf("%s: region misses/op sum to %v, sim_app_misses_per_op is %v", w.name, byRegion, total)
		}
		downs := wd.PerLayer["core.failover_downs"].Value
		if armed := w.name == "service_failover"; (downs > 0) != armed {
			t.Errorf("%s: core.failover_downs = %v", w.name, downs)
		}
		if w.name == "service_failover" && wd.PerLayer["core.emergency_ops"].Value != 0 {
			t.Errorf("service_failover: %v ops reached the emergency tier", wd.PerLayer["core.emergency_ops"].Value)
		}
	}
}

// TestTraceFile: the trace is a tree whose causes resolve, with spans
// from every boundary the workload crosses.
func TestTraceFile(t *testing.T) {
	_, dir := smokeRun(t)
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc traceDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		want := []string{"workload.run", "alloc.malloc", "alloc.free"}
		if w.name != "xalanc_classic" {
			want = append(want, "core.queue_wait", "core.service")
		}
		if w.name == "service_failover" {
			want = append(want, "workload.request")
		}
		seen := map[string]bool{}
		for i, sp := range doc.Spans {
			seen[sp.Name] = true
			if sp.ID != i || sp.Cause >= i || sp.End < sp.Start || (sp.Cause < 0) != (sp.Name == "workload.run") {
				t.Fatalf("%s: malformed span %+v at %d", w.name, sp, i)
			}
		}
		for _, name := range want {
			// xalanc builds its whole tree before the first free, past
			// the raw window; the aggregates cover every span.
			raw := seen[name] || name == "alloc.free"
			if !raw || doc.Aggregates[name].Count == 0 {
				t.Errorf("%s: no %s spans (raw %v, aggregate %+v)", w.name, name, seen[name], doc.Aggregates[name])
			}
		}
		if run, calls := doc.Aggregates["workload.run"], doc.Aggregates["alloc.malloc"]; run.SelfCycles >= run.Cycles || calls.SelfCycles != calls.Cycles {
			t.Errorf("%s: self times run %+v, malloc %+v", w.name, run, calls)
		}
	}
}

// leaky hands out a block that is still live every hundredth malloc (and
// swallows the matching extra free), the defect the shadow ledger exists
// to catch.
type leaky struct {
	Allocator
	calls    int
	last     uint64
	lastSize uint64
	extra    map[uint64]int
}

func (b *leaky) Malloc(t *Thread, size uint64) uint64 {
	if b.calls++; b.calls%100 == 0 && size <= b.lastSize {
		b.extra[b.last]++
		return b.last
	}
	b.last, b.lastSize = b.Allocator.Malloc(t, size), size
	return b.last
}

func (b *leaky) Free(t *Thread, addr uint64) {
	if b.extra[addr] > 0 {
		b.extra[addr]--
		return
	}
	b.Allocator.Free(t, addr)
}

func TestShadowFlagsBrokenAllocator(t *testing.T) {
	spec, _ := findWorkload("xalanc_offload")
	opt := spec.reference(1, scales["smoke"]).options()
	var rec *recorder
	opt.Wrap = func(a Allocator) Allocator {
		rec = newRecorder(&leaky{Allocator: a, extra: map[uint64]int{}})
		return rec
	}
	if _, err := runE(opt); err != nil {
		t.Fatal(err)
	}
	if rec.shadow.failed == 0 || !strings.Contains(rec.shadow.firstFail, "still live") {
		t.Fatalf("shadow ledger missed the duplicate blocks: %d failed of %d, first %q",
			rec.shadow.failed, rec.shadow.attempted, rec.shadow.firstFail)
	}
}

func TestShadowLedger(t *testing.T) {
	s := shadow{live: map[uint64]struct{}{}}
	s.malloc(0x1000, 32)
	s.free(0x1000)
	if s.failed != 0 {
		t.Fatalf("clean malloc/free pair failed: %s", s.firstFail)
	}
	s.malloc(0, 8)       // null
	s.malloc(0x1008, 32) // 16-byte class on an 8-byte boundary
	s.malloc(0x2000, 8)
	s.malloc(0x2000, 8) // already live
	s.free(0x3000)      // never allocated
	if s.attempted != 7 || s.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 7 and 4", s.attempted, s.failed)
	}
}

// TestCompare: the same result twice yields no "worse"; a simulated
// regression past its bound does; a host metric whose reps disagree is
// unresolved, not a pass.
func TestCompare(t *testing.T) {
	doc, dir := smokeRun(t)
	write := func(name string, mutate func(*workloadDoc)) string {
		b, _ := json.Marshal(doc)
		var c resultDoc
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(c.Workloads["xmalloc_fleet"])
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &c); err != nil {
			t.Fatal(err)
		}
		return path
	}
	compare := func(base, next string) (bool, string) {
		var out strings.Builder
		worse, err := compareFiles(base, next, &out)
		if err != nil {
			t.Fatal(err)
		}
		return worse, out.String()
	}
	same := write("same.json", nil)
	if worse, out := compare(same, same); worse || strings.Contains(out, "unresolved") {
		t.Errorf("same file twice:\n%s", out)
	}
	slower := write("slower.json", func(w *workloadDoc) {
		v := w.EndToEnd["sim_cycles_per_op"]
		v.Value *= 1.2
		w.EndToEnd["sim_cycles_per_op"] = v
		w.Failed = 3
	})
	worse, out := compare(same, slower)
	if !worse || strings.Count(out, "worse") != 2 {
		t.Errorf("+20%% cycles/op and 3 failed ops should be the two worse rows:\n%s", out)
	}
	noisy := write("noisy.json", func(w *workloadDoc) {
		v := w.EndToEnd["host_kops_per_s"]
		v.Reps, v.Unresolved = []float64{v.Value, v.Value * 2}, true
		w.EndToEnd["host_kops_per_s"] = v
	})
	if worse, out := compare(same, noisy); worse || !strings.Contains(out, "unresolved") {
		t.Errorf("a noisy host metric should be unresolved:\n%s", out)
	}
}
