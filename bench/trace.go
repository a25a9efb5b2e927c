package main

import (
	"fmt"
	"sort"
)

// Span kinds. A span is recorded at a layer boundary from outside the
// program: the alloc.* kinds by the recorder around each allocator call,
// workload.request from the SLO tracker's raw spans, core.* from the
// harness latency recorder, workload.run from Result.PerThread.
const (
	spanRun = iota
	spanRequest
	spanMalloc
	spanFree
	spanFlush
	spanQueueWait
	spanService
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"workload.run", "workload.request",
	"alloc.malloc", "alloc.free", "alloc.flush",
	"core.queue_wait", "core.service",
}

// call is one allocator call as the application thread saw it.
type call struct {
	thread int32 // sim thread id
	kind   uint8
	start  uint64 // caller's clock at entry
	end    uint64 // caller's clock at return
	misses uint32 // LLC + dTLB misses on the caller's core inside the call
}

// shadow is the live-address ledger behind op_fail_pct: it knows nothing
// about the allocator beyond the addresses it hands out and takes back.
type shadow struct {
	live      map[uint64]struct{}
	attempted uint64
	failed    uint64
	firstFail string
}

func (s *shadow) fail(format string, args ...any) {
	s.failed++
	if s.firstFail == "" {
		s.firstFail = fmt.Sprintf(format, args...)
	}
}

func (s *shadow) malloc(addr, size uint64) {
	s.attempted++
	_, dup := s.live[addr]
	switch {
	case addr == 0:
		s.fail("malloc(%d) returned null", size)
	case addr%8 != 0 || size >= 16 && addr%16 != 0:
		s.fail("malloc(%d) returned misaligned %#x", size, addr)
	case dup:
		s.fail("malloc(%d) returned %#x, which is still live", size, addr)
	default:
		s.live[addr] = struct{}{}
	}
}

func (s *shadow) free(addr uint64) {
	s.attempted++
	if _, ok := s.live[addr]; !ok {
		s.fail("free(%#x) of an address that is not live", addr)
		return
	}
	delete(s.live, addr)
}

// recorder is the Options.Wrap decorator of the traced rep. It runs on
// the host between simulated operations and only reads t.Counters(), so
// it adds no simulated traffic: a wrapped run must reproduce an unwrapped
// run's counters bit for bit (checked in run.go).
type recorder struct {
	inner  Allocator
	shadow shadow
	calls  []call
	// flushEnd is each thread's clock when the harness's end-of-region
	// Flush returned, i.e. the end of its measured region.
	flushEnd map[int]uint64
}

func newRecorder(inner Allocator) *recorder {
	return &recorder{inner: inner, shadow: shadow{live: map[uint64]struct{}{}}, flushEnd: map[int]uint64{}}
}

func appMisses(c Counters) uint64 {
	return c.LLCLoadMisses + c.LLCStoreMisses + c.DTLBLoadMisses + c.DTLBStoreMisses
}

func (r *recorder) note(t *Thread, kind uint8, before Counters) uint64 {
	after := t.Counters()
	r.calls = append(r.calls, call{
		thread: int32(t.ID()),
		kind:   kind,
		start:  before.Cycles,
		end:    after.Cycles,
		misses: uint32(appMisses(after) - appMisses(before)),
	})
	return after.Cycles
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Stats() AllocStats { return r.inner.Stats() }

func (r *recorder) Malloc(t *Thread, size uint64) uint64 {
	before := t.Counters()
	addr := r.inner.Malloc(t, size)
	r.note(t, spanMalloc, before)
	r.shadow.malloc(addr, size)
	return addr
}

func (r *recorder) Free(t *Thread, addr uint64) {
	before := t.Counters()
	r.inner.Free(t, addr)
	r.note(t, spanFree, before)
	r.shadow.free(addr)
}

// Flush forwards alloc.Flusher. The harness calls it on every worker as
// the last thing inside the measured region (the recorder always
// implements it), which is how the region's end becomes observable.
func (r *recorder) Flush(t *Thread) {
	before := t.Counters()
	if f, ok := r.inner.(Flusher); ok {
		f.Flush(t)
	}
	r.flushEnd[t.ID()] = r.note(t, spanFlush, before)
}

// workerTrace is one worker's slice of a traced cell.
type workerTrace struct {
	thread     int
	start, end uint64 // the measured region (workload.run root span)
	calls      []call // this worker's allocator calls in program order
	requests   []RequestSpan
}

// cellTrace is the span tree of one wrapped RunE call.
type cellTrace struct {
	workers []workerTrace
	shadow  shadow
}

// build splits the recorder's calls per worker and anchors each worker's
// root span: it ends where Flush returned and is PerThread[part].Cycles
// long. Workers are spawned in part order after the server daemons, so
// ascending thread id is ascending part.
func (r *recorder) build(res Result) (*cellTrace, error) {
	ids := make([]int, 0, len(r.flushEnd))
	for id := range r.flushEnd {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) != len(res.PerThread) {
		return nil, fmt.Errorf("trace: %d threads flushed but the run had %d workers", len(ids), len(res.PerThread))
	}
	ct := &cellTrace{shadow: r.shadow, workers: make([]workerTrace, len(ids))}
	part := map[int32]int{}
	for i, id := range ids {
		end := r.flushEnd[id]
		ct.workers[i] = workerTrace{thread: id, start: end - res.PerThread[i].Cycles, end: end}
		part[int32(id)] = i
	}
	for _, c := range r.calls {
		w := &ct.workers[part[c.thread]]
		w.calls = append(w.calls, c)
	}
	if res.SLO != nil {
		for _, sp := range res.SLO.Spans() {
			if i, ok := part[int32(sp.Thread)]; ok {
				ct.workers[i].requests = append(ct.workers[i].requests, sp)
			}
		}
	}
	return ct, nil
}

// check verifies the span tree is a tree: a worker's calls are inside
// its root, in order and disjoint, and the last one ends the region — so
// a span's self time really is its duration minus its children's.
func (ct *cellTrace) check() error {
	for _, w := range ct.workers {
		at := w.start
		for _, c := range w.calls {
			if c.start < at || c.end < c.start {
				return fmt.Errorf("trace: thread %d: %s span [%d,%d) overlaps its predecessor ending at %d",
					w.thread, spanNames[c.kind], c.start, c.end, at)
			}
			at = c.end
		}
		if at != w.end {
			return fmt.Errorf("trace: thread %d: last allocator span ends at %d, region at %d", w.thread, at, w.end)
		}
	}
	return nil
}

// allocCycles sums a worker's allocator span durations.
func (w *workerTrace) allocCycles() (cycles uint64) {
	for _, c := range w.calls {
		cycles += c.end - c.start
	}
	return cycles
}

// callAt returns the index of the worker's call whose span contains
// cycle, or -1.
func (w *workerTrace) callAt(cycle uint64) int {
	i := sort.Search(len(w.calls), func(i int) bool { return w.calls[i].end > cycle })
	if i < len(w.calls) && w.calls[i].start <= cycle {
		return i
	}
	return -1
}

// rawSpan is the on-disk span form.
type rawSpan struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Thread int    `json:"thread"`
	Start  uint64 `json:"start"`
	End    uint64 `json:"end"`
	Cause  int    `json:"cause"` // id of the span that caused this one, -1 for a root
}

// spanAggregate summarises every span of one name.
type spanAggregate struct {
	Count      uint64 `json:"count"`
	Cycles     uint64 `json:"cycles"`
	SelfCycles uint64 `json:"self_cycles"`
	P50        uint64 `json:"p50_cycles"`
	P99        uint64 `json:"p99_cycles"`
}

// traceDoc is bench/out/trace-<workload>.json.
type traceDoc struct {
	Workload   string                   `json:"workload"`
	Seed       uint64                   `json:"seed"`
	Note       string                   `json:"note"`
	Aggregates map[string]spanAggregate `json:"aggregates"`
	Spans      []rawSpan                `json:"spans"`
}

const maxRawSpans = 20000

// traceOf flattens the wrapped rep's span trees and the sampled rep's
// offload spans into the trace document: aggregates over every span, and
// the head of the first cell's tree.
func traceOf(name string, seed uint64, wrapped, sampled rep) traceDoc {
	cells := wrapped.traces
	offload := make([][]OffloadSpan, len(cells))
	for i, res := range sampled.results {
		if res.Latency != nil {
			offload[i] = res.Latency.Spans
		}
	}
	durs := make([][]uint64, numSpanKinds)
	self := make([]uint64, numSpanKinds)
	add := func(kind int, d uint64) { durs[kind] = append(durs[kind], d) }
	for ci, ct := range cells {
		for _, w := range ct.workers {
			run := w.end - w.start
			add(spanRun, run)
			var inReq, alloc uint64
			ri := 0
			for _, c := range w.calls {
				d := c.end - c.start
				add(int(c.kind), d)
				self[c.kind] += d
				alloc += d
				for ri < len(w.requests) && w.requests[ri].Complete <= c.start {
					ri++
				}
				if ri < len(w.requests) && w.requests[ri].Start <= c.start {
					inReq += d
				}
			}
			var reqs uint64
			for _, rq := range w.requests {
				add(spanRequest, rq.Complete-rq.Start)
				reqs += rq.Complete - rq.Start
			}
			self[spanRequest] += reqs - inReq
			self[spanRun] += run - reqs - (alloc - inReq)
		}
		for _, sp := range offload[ci] {
			add(spanQueueWait, sp.QueueWait())
			add(spanService, sp.Service())
			self[spanQueueWait] += sp.QueueWait()
			self[spanService] += sp.Service()
		}
	}
	doc := traceDoc{
		Workload:   name,
		Seed:       seed,
		Note:       "cycles are simulated; aggregates cover every span of every cell, spans holds the first of cell 0",
		Aggregates: map[string]spanAggregate{},
	}
	for k, d := range durs {
		if len(d) == 0 {
			continue
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		var sum uint64
		for _, v := range d {
			sum += v
		}
		doc.Aggregates[spanNames[k]] = spanAggregate{
			Count: uint64(len(d)), Cycles: sum, SelfCycles: self[k],
			P50: percentile(d, 0.50), P99: percentile(d, 0.99),
		}
	}
	doc.Spans = rawSpans(cells[0], offload[0])
	return doc
}

// rawSpans lists the head of one cell's span tree: per worker, its root
// and its first calls with the requests around them and the offload spans
// they caused. An offload span is caused by the allocator span of the
// same thread that contains its enqueue cycle — well defined because the
// traced reps are bit-identical.
func rawSpans(ct *cellTrace, offload []OffloadSpan) []rawSpan {
	var out []rawSpan
	emit := func(kind int, thread int, start, end uint64, cause int) int {
		id := len(out)
		out = append(out, rawSpan{ID: id, Name: spanNames[kind], Thread: thread, Start: start, End: end, Cause: cause})
		return id
	}
	// A call contributes its own span, usually two offload spans, and on
	// the service workload a share of a request span.
	perWorker := maxRawSpans / (4 * len(ct.workers))
	byThread := map[int]int{}
	roots := make([]int, len(ct.workers))
	for i, w := range ct.workers {
		roots[i] = emit(spanRun, w.thread, w.start, w.end, -1)
		byThread[w.thread] = i
	}
	type key struct{ worker, call int }
	caused := map[key][]OffloadSpan{}
	for _, sp := range offload {
		wi, ok := byThread[sp.Client]
		if !ok {
			continue
		}
		if ci := ct.workers[wi].callAt(sp.Enqueue); ci >= 0 && ci < perWorker {
			caused[key{wi, ci}] = append(caused[key{wi, ci}], sp)
		}
	}
	for wi, w := range ct.workers {
		ri, reqID := 0, -1
		for ci, c := range w.calls[:min(perWorker, len(w.calls))] {
			for ri < len(w.requests) && w.requests[ri].Complete <= c.start {
				ri, reqID = ri+1, -1
			}
			cause := roots[wi]
			if ri < len(w.requests) && w.requests[ri].Start <= c.start {
				if reqID < 0 {
					reqID = emit(spanRequest, w.thread, w.requests[ri].Start, w.requests[ri].Complete, roots[wi])
				}
				cause = reqID
			}
			id := emit(int(c.kind), w.thread, c.start, c.end, cause)
			for _, sp := range caused[key{wi, ci}] {
				emit(spanQueueWait, sp.Client, sp.Enqueue, sp.Enqueue+sp.QueueWait(), id)
				emit(spanService, sp.Client, sp.Dequeue, sp.Dequeue+sp.Service(), id)
			}
		}
	}
	return out[:min(maxRawSpans, len(out))]
}

// percentile returns the exact q-quantile of an ascending slice (nearest
// rank), 0 when empty.
func percentile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
