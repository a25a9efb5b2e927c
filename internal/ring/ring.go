// Package ring implements single-producer single-consumer descriptor
// rings in simulated shared memory — the transport NextGen-Malloc uses
// between an application core and the dedicated allocator core.
//
// The doorbell is in the slot: there is no shared producer index. Each
// slot's first word carries a lap tag in TagBit, the producer stores
// that word last, and the consumer detects publication by loading the
// first word of the slot it is about to pop — the load it performs
// anyway. A request therefore moves exactly one cache line from the
// producer's core to the consumer's (the overhead the paper's §3.1.1
// weighs against the pollution savings), and an empty poll costs a
// single load that stays cached until the producer writes that line.
// The consumer index survives, on its own line: the producer needs it
// to know a slot is free again, reads it only when the ring looks full
// (it keeps a shadow copy), and the alternative — the consumer clearing
// each slot — would hand the slot line back once more per request.
//
// Because sim.LineSize/SlotSize slots share one cache line, a producer
// can still move several requests per line transfer: Stage holds a
// request back without touching the slot array (the consumer polls that
// line; a store there would hand it over once per staged slot) and
// Publish stores the whole batch back to back (the batched-request
// opportunity of the paper's §3.3). The consumer pops one slot at a
// time: the line is already in its cache after the first.
package ring

import (
	"fmt"
	"math/bits"

	"nextgenmalloc/internal/sim"
)

// Stats are host-side ring telemetry (observation-only: collecting them
// issues no simulated memory traffic). Occupancy is a histogram of the
// ring depth observed by the producer after each successful push, in
// log2 buckets: bucket 0 is unused, bucket b counts depths in
// [2^(b-1), 2^b). The deepest shipped ring (1024 slots) lands in
// bucket 11.
type Stats struct {
	Pushes      uint64
	Pops        uint64
	PushBatches uint64 // publications (Pushes/PushBatches = avg batch width)
	FullRetries uint64 // push attempts that found the ring full
	StallCycles uint64 // producer cycles spent spinning in Push/Stage
	Occupancy   [12]uint64
}

// Add accumulates o into s (for merging per-ring stats).
func (s *Stats) Add(o Stats) {
	s.Pushes += o.Pushes
	s.Pops += o.Pops
	s.PushBatches += o.PushBatches
	s.FullRetries += o.FullRetries
	s.StallCycles += o.StallCycles
	for i := range s.Occupancy {
		s.Occupancy[i] += o.Occupancy[i]
	}
}

// SlotSize is the byte size of one ring slot: two 8-byte words
// (operation descriptor and payload), mirroring the request_size /
// response_addr pair of the paper's §4.2 prototype.
const SlotSize = 16

// TagBit is the bit of a slot's first word the ring reserves for its
// lap tag. Callers must pass first words with it clear (TryStage
// panics otherwise) and always get them back with it clear. It sits at
// the top of the 56-bit op+payload field, under core's seal byte.
const TagBit = uint64(1) << 55

// headerSize is the head line.
const headerSize = sim.LineSize

// SPSC is a single-producer single-consumer ring of 16-byte slots.
//
// Word layout:
//
//	base + 0:         head (consumer index), own line
//	base + 64 + 16*i: slot i {word0 | lap tag, word1}
//
// Slot i of lap n (index n*size + i) is published when its first word's
// TagBit equals lapTag(index): set on even laps, clear on odd ones, so
// zeroed memory reads as "nothing published" and every lap's tag is the
// previous lap's stale one.
//
// The index fields model the copies a real implementation keeps in
// registers or producer/consumer-private lines.
type SPSC struct {
	base  uint64
	mask  uint64 // slots - 1
	shift uint   // log2(slots): index>>shift is the lap

	prodTail   uint64 // producer's private tail
	staged     uint64 // slots written past prodTail but not yet published
	shadowHead uint64 // producer's last-read consumer index
	consHead   uint64 // consumer's private head mirror

	// held holds the producer-private words of every slot from pubTail on
	// (staged, or hidden by a lost doorbell), indexed like the slot array:
	// registers until their stores, so no simulated cost.
	held [][2]uint64
	// pubTail is the index below which every slot carries its true tag.
	// It trails prodTail only while a fault-injected doorbell drop is
	// outstanding; Republish or the next surviving Publish catches it up.
	pubTail uint64
	// dropHook, when set, is consulted on each publication; true stores
	// the batch's first words with the stale tag (a lost doorbell).
	dropHook func() bool

	stats Stats

	// stamps, when enabled, records the producer clock at stage time for
	// each slot, indexed like the slot array. Host-side only: reading or
	// writing a stamp issues no simulated traffic, so enabling them
	// cannot perturb counters (the latency spans built from them are
	// pure observation).
	stamps []uint64
}

// Stats returns a copy of the ring's telemetry counters.
func (r *SPSC) Stats() Stats { return r.stats }

// EnableStamps turns on host-side enqueue-cycle stamping: every slot
// staged afterwards remembers the producer clock at stage time, which
// the consumer reads back through PoppedStamp to build offload latency
// spans. Zero simulated cost.
func (r *SPSC) EnableStamps() {
	if r.stamps == nil {
		r.stamps = make([]uint64, len(r.held))
	}
}

// PoppedStamp returns the enqueue stamp of the slot most recently
// consumed by TryPop (0 when stamping is disabled).
func (r *SPSC) PoppedStamp() uint64 {
	if r.stamps == nil {
		return 0
	}
	return r.stamps[(r.consHead-1)&r.mask]
}

// HostDepth returns the ring occupancy visible to the host (published
// plus staged slots), without issuing simulated traffic — the gauge the
// timeline sampler reads.
func (r *SPSC) HostDepth() int {
	return int(r.prodTail + r.staged - r.consHead)
}

// BytesFor returns the mapped bytes needed for a ring with the given
// slot count.
func BytesFor(slots int) int {
	return headerSize + slots*SlotSize
}

// New places a ring over zeroed simulated memory at base. slots must be
// a power of two.
func New(base uint64, slots int) *SPSC {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("ring: slot count %d is not a power of two", slots))
	}
	if base%sim.LineSize != 0 {
		panic("ring: base must be cache-line aligned")
	}
	return &SPSC{
		base: base, mask: uint64(slots - 1), shift: uint(bits.TrailingZeros(uint(slots))),
		held: make([][2]uint64, slots),
	}
}

func (r *SPSC) headAddr() uint64         { return r.base }
func (r *SPSC) slotAddr(i uint64) uint64 { return r.base + headerSize + (i&r.mask)*SlotSize }

// lapTag is the TagBit value that marks slot index i published.
func (r *SPSC) lapTag(i uint64) uint64 { return (^i >> r.shift & 1) * TagBit }

// TryStage claims the next free slot for (w0, w1) — w0 with TagBit
// clear — and holds the words for Publish; it returns false when the
// ring (counting earlier staged slots) is full. Staging stores nothing,
// so requests bound for consecutive slots (sim.LineSize/SlotSize per
// line) coalesce into a single line transfer. Producer-side only.
func (r *SPSC) TryStage(t *sim.Thread, w0, w1 uint64) bool {
	if w0&TagBit != 0 {
		panic(fmt.Sprintf("ring: first word %#x has the reserved lap-tag bit set", w0))
	}
	i := r.prodTail + r.staged
	if i-r.shadowHead > r.mask {
		// Looks full: refresh the consumer index.
		r.shadowHead = t.AtomicLoad64(r.headAddr())
		if i-r.shadowHead > r.mask {
			r.stats.FullRetries++
			return false
		}
	}
	r.held[i&r.mask] = [2]uint64{w0, w1}
	if r.stamps != nil {
		r.stamps[i&r.mask] = t.Clock()
	}
	r.staged++
	return true
}

// Staged reports how many slots are written but not yet published.
func (r *SPSC) Staged() int { return int(r.staged) }

// SetDropHook installs a fault-injection hook consulted on every
// publication; returning true loses that doorbell (the slot words are
// written, but with the stale tag, so the consumer keeps seeing an
// empty ring until a later publication or Republish delivers them).
// Nil disarms. Test/injection use only.
func (r *SPSC) SetDropHook(fn func() bool) { r.dropHook = fn }

// ring writes slots [from, to): the payload word, then a release store
// of the first word with its lap tag flipped by flip (0 publishes,
// TagBit hides).
func (r *SPSC) ring(t *sim.Thread, from, to, flip uint64) {
	for i := from; i < to; i++ {
		w := r.held[i&r.mask]
		t.Store64(r.slotAddr(i)+8, w[1])
		t.AtomicStore64(r.slotAddr(i), w[0]|(r.lapTag(i)^flip))
	}
}

// Republish re-rings the doorbell: it rewrites every slot a drop hook
// hid, now with its true tag, and costs nothing when none is. Its stores are
// deliberately not droppable — they model a synchronous re-ring, not a
// fire-and-forget doorbell. Producer-side state; the shutdown drain may
// also call it to surface hidden slots before the final pops.
func (r *SPSC) Republish(t *sim.Thread) {
	r.ring(t, r.pubTail, r.prodTail, 0)
	r.pubTail = r.prodTail
}

// Dropped reports whether a suppressed doorbell is outstanding (the
// consumer cannot see every published slot). Host-side observation only.
func (r *SPSC) Dropped() bool { return r.pubTail != r.prodTail }

// Publish writes every staged slot, in order, each made visible by the
// release store of its tagged first word. A no-op (no simulated
// traffic) when nothing is staged.
func (r *SPSC) Publish(t *sim.Thread) {
	if r.staged == 0 {
		return
	}
	k := r.staged
	r.staged = 0
	end := r.prodTail + k
	if r.dropHook != nil && r.dropHook() {
		// Doorbell lost: the producer still pays the stores (it executed
		// the instructions), but the words land with the stale tag.
		r.ring(t, r.prodTail, end, TagBit)
	} else {
		r.ring(t, r.pubTail, end, 0)
		r.pubTail = end
	}
	r.prodTail = end
	r.stats.Pushes += k
	r.stats.PushBatches++
	// The histogram counts per request (its sum stays equal to Pushes):
	// all k requests of this batch observed the same post-publish depth.
	r.stats.Occupancy[min(bits.Len64(r.prodTail-r.shadowHead), len(r.stats.Occupancy)-1)] += k
}

// Stage spins until the slot is staged, publishing any staged backlog
// first so the consumer can drain while the producer waits. Cycles spent
// waiting for ring space are accounted as producer stall time.
func (r *SPSC) Stage(t *sim.Thread, w0, w1 uint64) {
	if r.TryStage(t, w0, w1) {
		return
	}
	r.Publish(t)
	start := t.Clock()
	for {
		t.Pause(32)
		if r.TryStage(t, w0, w1) {
			r.stats.StallCycles += t.Clock() - start
			return
		}
	}
}

// TryPush publishes (w0, w1) if the ring has space; it returns false
// when full. Any previously staged slots are published along with it.
// Producer-side only.
func (r *SPSC) TryPush(t *sim.Thread, w0, w1 uint64) bool {
	if !r.TryStage(t, w0, w1) {
		return false
	}
	r.Publish(t)
	return true
}

// Push is the unbatched Stage + Publish: it spins until the slot is
// staged (producer stall time) and publishes it with any staged backlog.
func (r *SPSC) Push(t *sim.Thread, w0, w1 uint64) {
	r.Stage(t, w0, w1)
	r.Publish(t)
}

// TryPop consumes one slot — stopping at a first word whose tag is not
// this lap's — and publishes the consumer index; ok is false when the
// ring is empty. Consumer-side only.
func (r *SPSC) TryPop(t *sim.Thread) (w0, w1 uint64, ok bool) {
	slot := r.slotAddr(r.consHead)
	w0 = t.AtomicLoad64(slot)
	if w0&TagBit != r.lapTag(r.consHead) {
		return 0, 0, false
	}
	w1 = t.Load64(slot + 8)
	r.consHead++
	t.AtomicStore64(r.headAddr(), r.consHead)
	r.stats.Pops++
	return w0 &^ TagBit, w1, true
}
