package timeline

import "math/bits"

// Op classifies an offload request for latency accounting.
type Op int

const (
	// OpMalloc is a synchronous malloc round trip (client spins on the
	// response line).
	OpMalloc Op = iota
	// OpFree is an asynchronous free.
	OpFree
	// NumOps sizes per-op arrays.
	NumOps
)

// String names the op for reports and trace events.
func (o Op) String() string {
	switch o {
	case OpMalloc:
		return "malloc"
	case OpFree:
		return "free"
	}
	return "unknown"
}

// Histogram geometry: log2 major buckets with histSub linear sub-buckets
// each, HDR style. Quantile reports bucket midpoints, so relative error
// is bounded by half the sub-bucket width, 1/(2*histSub) (6.25%).
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// Hist is a fixed-size log2-linear histogram of cycle counts.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// histIndex maps a value to its bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	top := bits.Len64(v) - 1
	return (top-histSubBits+1)*histSub + int((v>>(top-histSubBits))&(histSub-1))
}

// histLower returns the smallest value mapping to bucket idx.
func histLower(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	b := idx / histSub
	sub := idx % histSub
	return uint64(histSub+sub) << (b - 1)
}

// histMid returns the midpoint of bucket idx (the quantile estimate).
// Buckets below histSub have width 1, so small values stay exact.
func histMid(idx int) uint64 {
	lo := histLower(idx)
	if idx+1 >= histBuckets {
		return lo
	}
	return lo + (histLower(idx+1)-lo)/2
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[histIndex(v)]++
}

// Add merges o into h. Count/Sum/Buckets add; Max merges by maximum
// (the reflection coverage test special-cases it).
func (h *Hist) Add(o Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the midpoint of the bucket holding the q-th quantile
// (0 < q < 1), clamped to the exact observed Max; q >= 1 returns Max.
// The lower bound would systematically under-report tail latencies for
// SLO comparisons; the midpoint bounds the relative error by half the
// sub-bucket width (6.25%), and small values (buckets of width 1) stay
// exact.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			if est := histMid(i); est < h.Max {
				return est
			}
			return h.Max
		}
	}
	return h.Max
}

// OpLatency holds the three distributions for one op kind. The
// invariant Queue + Service = Total holds per observed span (Span
// defines EndToEnd as the sum), so the three Sums partition exactly.
type OpLatency struct {
	Queue   Hist
	Service Hist
	Total   Hist
}

// Add merges o into l field-wise.
func (l *OpLatency) Add(o OpLatency) {
	l.Queue.Add(o.Queue)
	l.Service.Add(o.Service)
	l.Total.Add(o.Total)
}

// Span is one offload request's life cycle in cycles: pushed onto the
// ring at Enqueue (producer clock), popped by the server at Dequeue,
// finished at Complete (both server clock).
type Span struct {
	Op     Op
	Client int
	// Enqueue is the producer-core clock at ring stage time; Dequeue and
	// Complete are server-core clocks. Producer and server clocks can
	// differ by up to the scheduler quantum, so the derived phases
	// saturate rather than underflow.
	Enqueue  uint64
	Dequeue  uint64
	Complete uint64
}

// QueueWait is the time the request sat in the ring (saturated at 0:
// cross-core clocks may be skewed by up to the scheduler quantum).
func (s Span) QueueWait() uint64 {
	if s.Dequeue <= s.Enqueue {
		return 0
	}
	return s.Dequeue - s.Enqueue
}

// Service is the server's processing time (saturated at 0).
func (s Span) Service() uint64 {
	if s.Complete <= s.Dequeue {
		return 0
	}
	return s.Complete - s.Dequeue
}

// EndToEnd is defined as QueueWait + Service, so the partition identity
// queue-wait + service = end-to-end holds exactly per span even under
// cross-core clock skew.
func (s Span) EndToEnd() uint64 {
	return s.QueueWait() + s.Service()
}

// DefaultSpanCap bounds the retained raw spans (the histograms keep
// counting past it; only Chrome-trace detail is dropped).
const DefaultSpanCap = 1 << 17

// LatencyRecorder folds offload spans into per-op histograms and keeps
// a bounded buffer of raw spans for trace export. Host-side only.
type LatencyRecorder struct {
	ByOp [NumOps]OpLatency
	// Spans retains up to cap raw spans in completion order; Dropped
	// counts the overflow (histograms still include them).
	Spans   []Span
	Dropped uint64

	cap int
}

// NewLatencyRecorder builds a recorder retaining at most spanCap raw
// spans (DefaultSpanCap when <= 0).
func NewLatencyRecorder(spanCap int) *LatencyRecorder {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &LatencyRecorder{cap: spanCap}
}

// Record folds one completed request into the histograms and, capacity
// permitting, the raw span buffer.
func (r *LatencyRecorder) Record(op Op, client int, enqueue, dequeue, complete uint64) {
	s := Span{Op: op, Client: client, Enqueue: enqueue, Dequeue: dequeue, Complete: complete}
	l := &r.ByOp[op]
	l.Queue.Observe(s.QueueWait())
	l.Service.Observe(s.Service())
	l.Total.Observe(s.EndToEnd())
	if len(r.Spans) < r.cap {
		r.Spans = append(r.Spans, s)
	} else {
		r.Dropped++
	}
}

// HasSpans reports whether any request was recorded.
func (r *LatencyRecorder) HasSpans() bool {
	return r != nil && r.TotalCount() > 0
}

// TotalCount returns the number of recorded requests across ops.
func (r *LatencyRecorder) TotalCount() uint64 {
	var n uint64
	for i := range r.ByOp {
		n += r.ByOp[i].Total.Count
	}
	return n
}
