package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// repHost is the host-side cost of one rep (all cells back to back).
//
// The host clock behind every gated host metric is CPUSeconds, the
// process's user + system time, not wall time: this box is a VM whose
// wall clock includes hypervisor steal (one 2.9 s rep of xmalloc_fleet
// measured 21.8 s of wall time while /proc/stat's steal column jumped),
// and the simulation is one goroutine, so the two agree when the box is
// quiet. Seconds (wall) is kept for the harness.rep_s_* layer metrics.
type repHost struct {
	Seconds      float64 `json:"seconds"`
	CPUSeconds   float64 `json:"cpu_seconds"`
	SetupSeconds float64 `json:"setup_seconds"` // wall, RunE entry -> Options.Prepare, summed over cells
	AllocBytes   uint64  `json:"alloc_bytes"`
	Mallocs      uint64  `json:"mallocs"`
	GCs          uint32  `json:"gcs"`
}

type repMode int

const (
	// plain is an untraced rep: the only kind end-to-end host numbers
	// come from.
	plain repMode = iota
	// wrapped installs the recorder (spans around every allocator call
	// plus the shadow live-address check). harness.RunE cannot see through
	// a wrapped allocator, so Result carries no offload telemetry here.
	wrapped
	// sampled arms the harness latency recorder for the offload spans.
	sampled
)

// rep is the outcome of running every cell of a workload once.
type rep struct {
	results []Result
	traces  []*cellTrace // wrapped reps only
	host    repHost
}

// fingerprint is what must repeat exactly from rep to rep, traced or not.
type fingerprint struct {
	Total, Server Counters
	Wall, Ops     uint64
}

func fingerprintOf(r Result) fingerprint {
	return fingerprint{Total: r.Total, Server: r.Server, Wall: r.WallCycles, Ops: r.AllocStats.MallocCalls + r.AllocStats.FreeCalls}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRep runs the cells once. The previous rep's garbage is collected
// first, outside the timer, so reps start from the same heap.
func runRep(cells []cell, mode repMode) (rep, error) {
	out := rep{results: make([]Result, len(cells))}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()
	for i, c := range cells {
		opt := c.options()
		var rec *recorder
		switch mode {
		case wrapped:
			opt.Wrap = func(a Allocator) Allocator {
				rec = newRecorder(a)
				return rec
			}
		case sampled:
			opt.SampleInterval = 1 << 22
			opt.SpanCapacity = 1 << 21
		}
		entered := time.Now()
		opt.Prepare = func(*Thread, Allocator) { out.host.SetupSeconds += time.Since(entered).Seconds() }
		res, err := runE(opt)
		if err != nil {
			return rep{}, fmt.Errorf("cell %s: %w", c.label, err)
		}
		if err := res.CheckLiveness(); err != nil {
			return rep{}, fmt.Errorf("cell %s: %w", c.label, err)
		}
		out.results[i] = res
		if rec != nil {
			ct, err := rec.build(res)
			if err != nil {
				return rep{}, fmt.Errorf("cell %s: %w", c.label, err)
			}
			out.traces = append(out.traces, ct)
		}
	}
	out.host.Seconds = time.Since(t0).Seconds()
	out.host.CPUSeconds = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	out.host.AllocBytes = after.TotalAlloc - before.TotalAlloc
	out.host.Mallocs = after.Mallocs - before.Mallocs
	out.host.GCs = after.NumGC - before.NumGC
	return out, nil
}

// measurement is everything observed about one workload at one seed.
type measurement struct {
	spec  workloadSpec
	seed  uint64
	cells []cell

	setupSeconds float64 // CPU seconds, workload start -> first timed rep
	wallSeconds  float64

	warm    rep   // wrapped warm-up rep: spans, shadow check
	ref     *rep  // wrapped reference run, when the workload has one
	timed   []rep // untraced reps; timed[0] supplies the simulated numbers
	sampled *rep  // offload spans, per-layer runs only
}

// measure runs one workload: set-up (wrapped warm-up rep, reference run),
// then untraced reps for at least seconds (and at least minReps),
// then, when layers is set, the sampled rep. Every rep must pass the
// liveness check and reproduce the warm-up rep's counters bit for bit;
// the three span identities are checked on the way out.
func measure(spec workloadSpec, seed uint64, sc scale, seconds float64, minReps int, layers bool) (*measurement, error) {
	start, cpuStart := time.Now(), cpuSeconds()
	cells := spec.cells(seed, sc)
	m := &measurement{spec: spec, seed: seed, cells: cells}

	var err error
	if m.warm, err = runRep(cells, wrapped); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", spec.name, err)
	}
	if spec.reference != nil {
		r, err := runRep([]cell{spec.reference(seed, sc)}, wrapped)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", spec.name, err)
		}
		m.ref = &r
	}
	m.setupSeconds = cpuSeconds() - cpuStart

	same := func(what string, r rep) error {
		for i := range cells {
			if got, want := fingerprintOf(r.results[i]), fingerprintOf(m.warm.results[i]); got != want {
				return fmt.Errorf("%s %s, cell %s: counters differ from the warm-up rep:\n got %+v\nwant %+v",
					spec.name, what, cells[i].label, got, want)
			}
		}
		return nil
	}
	timedStart := time.Now()
	for len(m.timed) < minReps || time.Since(timedStart).Seconds() < seconds {
		r, err := runRep(cells, plain)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", spec.name, len(m.timed), err)
		}
		if err := same(fmt.Sprintf("rep %d", len(m.timed)), r); err != nil {
			return nil, err
		}
		m.timed = append(m.timed, r)
	}
	if layers {
		r, err := runRep(cells, sampled)
		if err != nil {
			return nil, fmt.Errorf("%s sampled rep: %w", spec.name, err)
		}
		if err := same("sampled rep", r); err != nil {
			return nil, err
		}
		m.sampled = &r
	}
	if err := m.checkIdentities(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	m.wallSeconds = time.Since(start).Seconds()
	return m, nil
}

// checkIdentities verifies the three partitions the per-layer ledger
// rests on: allocator spans tile each worker's region (so user cycles +
// allocator cycles = Total.Cycles), region classes partition the
// application misses, and queue wait + service = round trip per offload
// span and in the recorder's histograms.
func (m *measurement) checkIdentities() error {
	for i, ct := range m.warm.traces {
		res := m.warm.results[i]
		if err := ct.check(); err != nil {
			return err
		}
		var cycles, calls uint64
		for _, w := range ct.workers {
			alloc, region := w.allocCycles(), w.end-w.start
			if alloc > region {
				return fmt.Errorf("cell %d thread %d: allocator spans (%d cycles) exceed the region (%d)", i, w.thread, alloc, region)
			}
			user := region - alloc
			cycles += user + alloc
			calls += uint64(len(w.calls))
		}
		if cycles != res.Total.Cycles {
			return fmt.Errorf("cell %d: user + allocator span cycles = %d, Total.Cycles = %d", i, cycles, res.Total.Cycles)
		}
		ops := res.AllocStats.MallocCalls + res.AllocStats.FreeCalls
		if flushes := uint64(len(ct.workers)); calls != ops+flushes {
			return fmt.Errorf("cell %d: %d allocator spans recorded, allocator counted %d calls + %d flushes", i, calls, ops, flushes)
		}
	}
	for i, res := range m.timed[0].results {
		var byClass uint64
		for _, c := range res.Classes {
			byClass += c.LLCLoadMisses + c.LLCStoreMisses + c.DTLBLoadMisses + c.DTLBStoreMisses
		}
		if total := appMisses(res.Total); byClass != total {
			return fmt.Errorf("cell %d: region classes hold %d misses, application cores counted %d", i, byClass, total)
		}
	}
	if m.sampled != nil {
		for i, res := range m.sampled.results {
			if res.Latency == nil {
				continue
			}
			if res.Latency.Dropped != 0 {
				return fmt.Errorf("cell %d: latency recorder dropped %d spans", i, res.Latency.Dropped)
			}
			for _, sp := range res.Latency.Spans {
				if sp.QueueWait()+sp.Service() != sp.EndToEnd() {
					return fmt.Errorf("cell %d: offload span %+v: queue wait + service != round trip", i, sp)
				}
			}
			for op, l := range res.Latency.ByOp {
				if l.Queue.Sum+l.Service.Sum != l.Total.Sum {
					return fmt.Errorf("cell %d: op %d histograms: queue %d + service %d != total %d", i, op, l.Queue.Sum, l.Service.Sum, l.Total.Sum)
				}
			}
		}
	}
	for i, res := range m.timed[0].results {
		if res.SLO != nil && res.SLO.DroppedSpans() != 0 {
			return fmt.Errorf("cell %d: SLO tracker dropped %d request spans", i, res.SLO.DroppedSpans())
		}
	}
	return nil
}

// opsAttempted is the number of allocator calls in one rep; failed counts
// the shadow ledger's rejections in the warm-up rep (first describes the
// first of them) plus every call the emergency tier served in an
// untraced rep.
func (m *measurement) opsAttempted() (attempted, failed uint64, first string) {
	for _, ct := range m.warm.traces {
		attempted += ct.shadow.attempted
		failed += ct.shadow.failed
		if first == "" {
			first = ct.shadow.firstFail
		}
	}
	for _, res := range m.timed[0].results {
		if res.Resilience != nil {
			failed += res.Resilience.Client.EmergencyMallocs + res.Resilience.Client.EmergencyFrees
		}
	}
	return attempted, failed, first
}
