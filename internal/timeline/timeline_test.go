package timeline

import (
	"fmt"
	"reflect"
	"testing"

	"nextgenmalloc/internal/sim"
)

// --- histogram geometry -----------------------------------------------------

func TestHistIndexBounds(t *testing.T) {
	// Every value must land in range, its bucket's lower bound must not
	// exceed it, and for v >= histSub the bucket width bounds the
	// relative error by 1/histSub (12.5%).
	vals := []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 4096, 1 << 20, 1<<40 + 12345, ^uint64(0)}
	prev := -1
	for _, v := range vals {
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, idx, histBuckets)
		}
		if idx < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		lo := histLower(idx)
		if lo > v {
			t.Fatalf("histLower(histIndex(%d)) = %d > value", v, lo)
		}
		if v >= histSub && v-lo > v/histSub {
			t.Fatalf("value %d bucket lower %d: error %d exceeds 1/%d bound", v, lo, v-lo, histSub)
		}
	}
	// Exact below histSub.
	for v := uint64(0); v < histSub; v++ {
		if got := histLower(histIndex(v)); got != v {
			t.Fatalf("small value %d not exact: lower %d", v, got)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count != 1000 || h.Max != 1000 {
		t.Fatalf("count %d max %d after 1000 observations", h.Count, h.Max)
	}
	for _, tc := range []struct {
		q     float64
		exact uint64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}} {
		// The bucket-midpoint estimate lands within half a bucket width
		// (1/(2*histSub) = 6.25%) of the exact order statistic, on
		// either side.
		got := h.Quantile(tc.q)
		slack := tc.exact/(2*histSub) + 1
		if got < tc.exact-slack || got > tc.exact+slack {
			t.Errorf("p%.0f = %d, want within [%d, %d]", tc.q*100, got, tc.exact-slack, tc.exact+slack)
		}
	}
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("q>=1 should return the exact max, got %d", got)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Errorf("empty histogram should report zeros")
	}
}

func TestHistQuantileMidpointClamp(t *testing.T) {
	// A single observation just past its bucket's lower bound puts the
	// midpoint above the observed maximum; the estimate must clamp to
	// Max so no quantile ever exceeds an actually-observed value.
	var h Hist
	h.Observe(961) // bucket [960, 1024): midpoint 992 > max 961
	for _, q := range []float64{0, 0.5, 0.99} {
		if got := h.Quantile(q); got != 961 {
			t.Fatalf("Quantile(%v) = %d, want clamped max 961", q, got)
		}
	}
	// Small values sit in width-1 buckets and stay exact.
	var s Hist
	s.Observe(5)
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("small-value quantile = %d, want exact 5", got)
	}
}

// --- Add coverage (reflection, same pattern as ring.Stats.Add) --------------

func fillLeaves(v reflect.Value, next *uint64, mul uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next * mul)
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(v.Index(i), next, mul)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(v.Field(i), next, mul)
		}
	default:
		panic("fillLeaves: unhandled kind " + v.Kind().String())
	}
}

// checkMerged verifies every uint64 leaf was merged: summed normally,
// or taken-by-maximum for fields named "Max" (Hist.Max is a high-water
// mark, not a counter). Either way a dropped field fails: the b-side
// fill uses a larger multiplier, so keeping a's value alone can never
// satisfy the max rule.
func checkMerged(t *testing.T, path string, a, b, merged reflect.Value) {
	t.Helper()
	switch a.Kind() {
	case reflect.Uint64:
		want := a.Uint() + b.Uint()
		if pathEndsWith(path, ".Max") {
			want = max(a.Uint(), b.Uint())
		}
		if merged.Uint() != want {
			t.Errorf("%s: Add gave %d, want %d (a=%d b=%d)", path, merged.Uint(), want, a.Uint(), b.Uint())
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			checkMerged(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), merged.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			checkMerged(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), merged.Field(i))
		}
	default:
		t.Fatalf("%s: unhandled kind %s", path, a.Kind())
	}
}

func pathEndsWith(path, suffix string) bool {
	return len(path) >= len(suffix) && path[len(path)-len(suffix):] == suffix
}

func TestHistAddCoversEveryField(t *testing.T) {
	var a, b Hist
	n := uint64(0)
	fillLeaves(reflect.ValueOf(&a).Elem(), &n, 1)
	n = 0
	fillLeaves(reflect.ValueOf(&b).Elem(), &n, 1000)
	merged := a
	merged.Add(b)
	checkMerged(t, "Hist", reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(merged))
}

func TestOpLatencyAddCoversEveryField(t *testing.T) {
	var a, b OpLatency
	n := uint64(0)
	fillLeaves(reflect.ValueOf(&a).Elem(), &n, 1)
	n = 0
	fillLeaves(reflect.ValueOf(&b).Elem(), &n, 1000)
	merged := a
	merged.Add(b)
	checkMerged(t, "OpLatency", reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(merged))
}

func TestCoreSampleAddCoversEveryField(t *testing.T) {
	var a, b CoreSample
	n := uint64(0)
	fillLeaves(reflect.ValueOf(&a).Elem(), &n, 1)
	n = 0
	fillLeaves(reflect.ValueOf(&b).Elem(), &n, 1000)
	merged := a
	merged.Add(b)
	checkMerged(t, "CoreSample", reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(merged))
}

// --- spans ------------------------------------------------------------------

func TestSpanPartition(t *testing.T) {
	// queue-wait + service = end-to-end must hold per span, including
	// under cross-core clock skew (dequeue stamped before enqueue).
	spans := []Span{
		{Op: OpMalloc, Enqueue: 100, Dequeue: 150, Complete: 220},
		{Op: OpFree, Enqueue: 100, Dequeue: 100, Complete: 100},
		{Op: OpFree, Enqueue: 200, Dequeue: 180, Complete: 260}, // skewed: deq < enq
		{Op: OpMalloc, Enqueue: 0, Dequeue: 0, Complete: 5},
	}
	for i, s := range spans {
		if s.QueueWait()+s.Service() != s.EndToEnd() {
			t.Errorf("span %d: %d + %d != %d", i, s.QueueWait(), s.Service(), s.EndToEnd())
		}
	}
	if spans[2].QueueWait() != 0 {
		t.Errorf("skewed span should saturate queue wait at 0, got %d", spans[2].QueueWait())
	}
}

func TestRecorderCapsSpansButNotHistograms(t *testing.T) {
	r := NewLatencyRecorder(4)
	for i := uint64(0); i < 10; i++ {
		r.Record(OpMalloc, 0, i*10, i*10+5, i*10+9)
	}
	if len(r.Spans) != 4 {
		t.Errorf("span buffer holds %d, want cap 4", len(r.Spans))
	}
	if r.Dropped != 6 {
		t.Errorf("dropped %d, want 6", r.Dropped)
	}
	if got := r.ByOp[OpMalloc].Total.Count; got != 10 {
		t.Errorf("histogram count %d, want 10 (drops must not lose histogram mass)", got)
	}
	if !r.HasSpans() || r.TotalCount() != 10 {
		t.Errorf("HasSpans/TotalCount inconsistent: %v %d", r.HasSpans(), r.TotalCount())
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpMalloc: "malloc", OpFree: "free", NumOps: "unknown"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// --- sampler on a live machine ----------------------------------------------

// smallMachine builds a 2-core machine with two concurrent threads that
// issue enough traffic to cross many sample intervals. Two live threads
// matter: with a single runnable thread the scheduler grants an
// unbounded lease and the probe only fires at retirement.
func smallMachine(stores int) *sim.Machine {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	m := sim.New(cfg)
	for core := 0; core < 2; core++ {
		m.Spawn(fmt.Sprintf("worker%d", core), core, func(t *sim.Thread) {
			page := t.Mmap(8)
			for i := 0; i < stores; i++ {
				t.Store64(page+uint64(i%4096)*8, uint64(i))
			}
		})
	}
	return m
}

func TestSamplerSnapshotsMonotone(t *testing.T) {
	m := smallMachine(20000)
	s := NewSampler(1000, 0)
	s.Attach(m)
	m.Run()
	s.Finish()
	series := s.Series()
	if len(series.Samples) < 5 {
		t.Fatalf("only %d samples; expected a sampled run", len(series.Samples))
	}
	for i := 1; i < len(series.Samples); i++ {
		if series.Samples[i].Cycle <= series.Samples[i-1].Cycle {
			t.Fatalf("sample cycles not strictly increasing at %d", i)
		}
		a := series.CoresAt(i-1, nil).Counters
		b := series.CoresAt(i, nil).Counters
		if b.Instructions < a.Instructions || b.Stores < a.Stores {
			t.Fatalf("cumulative counters regressed at sample %d", i)
		}
	}
	// The final snapshot covers the whole run: its totals must match the
	// machine's end state.
	last := series.CoresAt(len(series.Samples)-1, nil).Counters
	want := m.TotalCounters()
	if last.Instructions != want.Instructions || last.Stores != want.Stores {
		t.Errorf("final sample (%d instr, %d stores) != machine total (%d, %d)",
			last.Instructions, last.Stores, want.Instructions, want.Stores)
	}
}

func TestSamplerDecimationBoundsMemory(t *testing.T) {
	m := smallMachine(40000)
	const capacity = 8
	s := NewSampler(100, capacity) // tiny interval: forces many decimations
	s.Attach(m)
	m.Run()
	s.Finish()
	series := s.Series()
	if len(series.Samples) > capacity {
		t.Fatalf("series grew to %d samples, capacity %d", len(series.Samples), capacity)
	}
	if series.Interval <= 100 {
		t.Fatalf("interval %d did not double despite overflow", series.Interval)
	}
	for i := 1; i < len(series.Samples); i++ {
		if series.Samples[i].Cycle <= series.Samples[i-1].Cycle {
			t.Fatalf("decimated series out of order at %d", i)
		}
	}
}

func TestSamplerProbesGauges(t *testing.T) {
	m := smallMachine(5000)
	s := NewSampler(500, 0)
	s.Attach(m)
	s.ProbeRings(func() RingState { return RingState{MallocDepth: 3, FreeDepth: 7} })
	s.ProbeServer(func() ServerState { return ServerState{BusyCycles: 11} })
	m.Run()
	s.Finish()
	for i, smp := range s.Series().Samples {
		if smp.Rings != (RingState{MallocDepth: 3, FreeDepth: 7}) || smp.Server.BusyCycles != 11 {
			t.Fatalf("sample %d missing gauge values: %+v %+v", i, smp.Rings, smp.Server)
		}
	}
}
