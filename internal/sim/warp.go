package sim

import (
	"fmt"
	"slices"

	"nextgenmalloc/internal/cache"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/tlb"
)

// This file implements the time warp for wait loops: the host stops
// stepping through provably identical polling rounds and applies their
// effect arithmetically, lease by lease, without resuming the thread.
//
// Recording. WarpLoop records a round as an op script: for every
// simulated op (load, pause, exec) its kind, operand, loaded value, and
// the clock and instruction steps it charged. Two consecutive rounds
// with identical scripts whose counter delta is clean (only L1-hit
// loads through L1 TLB hits; no stores, misses, atomics or kernel work)
// prove the loop steady, even when a yield fell between or inside them:
// the script holds every value the rounds loaded, so nothing another
// thread wrote in between escaped it.
//
// Parking. A proven thread yields to Machine.Run as parked. Whenever it
// is the run heap's root, Run serves the lease it would have held by
// arithmetic alone: whole rounds, then the partial round up to the op at
// which the stepped thread would yield, advancing its clock and
// instruction count. The L1-hit loads walked are not charged lease by
// lease: the thread keeps the stretch walked since its last charge
// (start op, round ends crossed, end op) and charges it as one sequence
// (cache.ReplayL1Loads, tlb.ReplayL1LoadHits) when it wakes or is
// settled, and whenever Machine.CoreCounters or CoreClassCounters reads
// its core — the only readers of a core's cache and TLB counters. The
// LRU stamps a charge leaves depend only on the order of the loads, so
// one charge leaves exactly what charging every lease would, and
// counters are exact whenever they are read. Probes still fire at every
// lease end, with the same wall the stepped run shows there. When the
// thread resumes, WaitSpec.Skipped accounts every round completed this
// way.
//
// Soundness. Within one lease no other thread runs, so the state a
// round sees is fixed from the lease's start. A round is a function of
//
//   - the words it loads: each must hold its recorded value, its line
//     must be in this core's L1 at the recorded way and its page in the
//     L1 TLB, its address class must be unchanged, and no munmap may
//     have moved the address space (another core's store invalidates
//     the line; an LLC eviction back-invalidates it). Only the thread
//     itself fills its core's L1 and TLB, and it is parked, so these can
//     change only with the address-space epoch, the core's L1 drop count
//     (cache.System.L1Drops: every way dropped or refilled) or the
//     region table's mark count. Parking proves every way and class
//     and records the three counters; before each parked lease Run
//     compares them with their values at that proof or the last full
//     check, and if none moved it compares only the watched values. The
//     full per-word check runs only when a counter moved
//     (WarpStats.FullChecks counts it);
//   - its own clock: a round never starts arithmetically at or past
//     WaitSpec.Until or the Horizon value read at park time;
//   - host state, under the parked-round contract below.
//
// When any check fails the thread wakes: its coroutine resumes at the
// park point and re-runs the interrupted round's first j ops in replay
// mode — recorded values and clock steps, nothing charged twice — so it
// stands exactly where the stepped run would and continues concretely.
//
// The parked-round contract. A wait round may read host state (Go
// fields outside simulated memory) only if
//
//   - the thread itself is its only writer, and it reaches a fixed point
//     whenever scripts repeat (a rotating cursor makes scripts differ);
//   - or it is Machine.Stopping, which Run settles parked threads before
//     setting;
//   - or it changes with the machine wall clock only at Horizon, which
//     bounds both the thread's own clock and the wall: Run settles a
//     parked thread before the probe chain sees a wall at or past its
//     horizon;
//   - or every other writer calls Thread.Settle before writing it.
//
// Host state a round writes, and what Skipped accounts, may be read by
// another thread or a host observer (a sampler probe) only after
// Machine.Settle; a parked thread's counters need no settling. Settling runs
// each parked thread's coroutine up to the op at which the stepped run
// holds it suspended, so the host code of its interrupted round runs
// before the write, as it did in the stepped run; it then holds its
// next lease as an ordinary thread. Each settle also opens a new settle
// epoch, and only two rounds recorded within one epoch prove a loop
// steady: a thread suspended mid-proof when the host state changed
// re-proves it under the new state.
//
// Warp never changes what is simulated — only how fast the host gets
// there. The golden suite runs with warp on, and the deep-equality tests
// in warp_test.go and park_test.go compare warp-on and warp-off runs.

// warpWarmup is the number of rounds a WarpLoop call executes before it
// starts recording, so short waits (a client whose response arrives
// within a few polls) pay no detection overhead.
const warpWarmup = 3

// Backoff for busy loops: a Round that does real work (the server
// serving requests) is never going to record clean, and paying two
// counter snapshots and a script per round on it erases the savings the
// warp buys on idle windows. After warpDirtyLimit consecutive dirty
// rounds the detector stops recording and doubles a plain-round backoff
// up to warpMaxBackoff.
const (
	warpDirtyLimit = 2
	warpMaxBackoff = 32
)

// maxScript caps a recorded round; a longer one is not a wait round.
const maxScript = 512

// WaitSpec declares one wait loop to WarpLoop: how to run one round of
// it concretely and which boundaries stop an arithmetic advance.
type WaitSpec struct {
	// Round executes one iteration of the real loop body and reports
	// whether the wait is over. It must be exactly the code the
	// unwarped loop would run, and it must keep the parked-round
	// contract (see the top of warp.go).
	Round func() bool

	// Addrs is ignored: a steady round's loads are recorded as it runs.
	// The field remains so callers written against the declared-address
	// warp still compile.
	Addrs func() []uint64

	// Until, when nonzero, is the loop's exclusive deadline: rounds run
	// only while Thread.Clock() < Until. This models
	// `for t.Clock() < deadline { ... }`.
	Until uint64

	// Horizon, when non-nil, returns an exclusive upper bound on
	// arithmetic round starts (0 = none), read when the thread parks: a
	// round starting at or past it, or after the machine wall clock
	// reached it, may take a different path — a fault-stall window
	// opening — so it runs concretely. Unlike Until it does not end the
	// loop.
	Horizon func() uint64

	// Skipped, when non-nil, is invoked when a parked thread resumes,
	// with the number of rounds completed arithmetically and the cycles
	// they covered, so the call site can scale per-round host
	// accounting exactly as if the rounds had run.
	Skipped func(rounds, cycles uint64)
}

// opMode says how the script-capable ops treat the thread's next op.
type opMode uint8

const (
	modePlain  opMode = iota
	modeRecord        // run it, then append it to Thread.script
	modeReplay        // take it from the parked script: nothing charged
)

type opKind uint8

const (
	opLoad opKind = iota
	opPause
	opExec
)

// scriptOp is one simulated op of a recorded wait round.
type scriptOp struct {
	kind  opKind
	size  uint8  // load width
	arg   uint64 // load address, or pause/exec count
	val   uint64 // loaded value
	clock uint64 // cycles charged
	instr uint64 // instructions retired
}

// scriptLoad is Load in record or replay mode.
func (t *Thread) scriptLoad(vaddr uint64, size int) uint64 {
	if t.mode == modeReplay {
		return t.replay(opLoad, vaddr, size).val
	}
	c0 := t.clock
	e := t.access(vaddr, size, false)
	v := e.frame.Load(vaddr&mem.PageMask, size)
	if t.clock-c0 != t.caches.L1HitCycles() {
		// A miss: the round did real work, so stop recording it (its
		// empty script never covers the round).
		t.mode, t.script = modePlain, t.script[:0]
		return v
	}
	t.record(scriptOp{kind: opLoad, size: uint8(size), arg: vaddr, val: v, clock: t.clock - c0, instr: 1})
	return v
}

// tickSlow is Exec or Pause when the thread must yield first, or is
// recording or replaying a wait round.
func (t *Thread) tickSlow(kind opKind, n int) {
	if t.mode == modeReplay {
		t.replay(kind, uint64(n), 0)
		return
	}
	c0, i0 := t.clock, t.instr
	t.step()
	if kind == opExec {
		t.instr += uint64(n)
	}
	t.clock += uint64(n)
	if t.mode == modeRecord {
		t.record(scriptOp{kind: kind, arg: uint64(n), clock: t.clock - c0, instr: t.instr - i0})
	}
}

// record appends op to the round being recorded. A round that outgrows
// maxScript stops recording with an empty script, which never matches a
// clean round's load count.
func (t *Thread) record(op scriptOp) {
	if len(t.script) == maxScript {
		t.mode, t.script = modePlain, t.script[:0]
		return
	}
	t.script = append(t.script, op)
}

// replay takes the next op of a woken thread's interrupted round: the
// recorded value and steps, nothing charged to the hierarchy (the
// parked lease already did). After the last one the thread's lease is
// restored and its ops run concretely again.
func (t *Thread) replay(kind opKind, arg uint64, size int) *scriptOp {
	op := &t.pk.ops[t.replayAt]
	if op.kind != kind || op.arg != arg || int(op.size) != size {
		panic(fmt.Sprintf("sim: %s's replayed wait round diverged at op %d", t.name, t.replayAt))
	}
	t.clock += op.clock
	t.instr += op.instr
	if t.replayAt++; t.replayAt == t.replayEnd {
		t.mode, t.lease = modePlain, t.replayLease
	}
	return op
}

// warpSnap is the per-round state fingerprint: everything a clean wait
// round is allowed to change, in absolute cumulative form.
type warpSnap struct {
	clock        uint64
	instr        uint64
	atomics      uint64
	kernelCycles uint64
	cache        cache.CoreStats
	tlb          tlb.Stats
}

// snapInto fills dst in place: the fingerprint is taken once per
// recorded round, so it must not copy the 136-byte struct around.
func (t *Thread) snapInto(dst *warpSnap) {
	dst.clock = t.clock
	dst.instr = t.instr
	dst.atomics = t.atomics
	dst.kernelCycles = t.kernelCycles
	dst.cache = t.caches.Stats(t.core)
	dst.tlb = t.tlb.Stats()
}

// sub returns the per-round delta between two snapshots.
func (s *warpSnap) sub(o *warpSnap) warpSnap {
	return warpSnap{
		clock:        s.clock - o.clock,
		instr:        s.instr - o.instr,
		atomics:      s.atomics - o.atomics,
		kernelCycles: s.kernelCycles - o.kernelCycles,
		cache: cache.CoreStats{
			Loads:          s.cache.Loads - o.cache.Loads,
			Stores:         s.cache.Stores - o.cache.Stores,
			L1Misses:       s.cache.L1Misses - o.cache.L1Misses,
			L2Misses:       s.cache.L2Misses - o.cache.L2Misses,
			LLCLoadMisses:  s.cache.LLCLoadMisses - o.cache.LLCLoadMisses,
			LLCStoreMisses: s.cache.LLCStoreMisses - o.cache.LLCStoreMisses,
			Invalidations:  s.cache.Invalidations - o.cache.Invalidations,
			DirtyTransfers: s.cache.DirtyTransfers - o.cache.DirtyTransfers,
		},
		tlb: tlb.Stats{
			LoadHits:    s.tlb.LoadHits - o.tlb.LoadHits,
			LoadMisses:  s.tlb.LoadMisses - o.tlb.LoadMisses,
			StoreHits:   s.tlb.StoreHits - o.tlb.StoreHits,
			StoreMisses: s.tlb.StoreMisses - o.tlb.StoreMisses,
			STLBHits:    s.tlb.STLBHits - o.tlb.STLBHits,
		},
	}
}

// clean reports whether a round delta is replayable: pure L1-hit loads
// (each translating through an L1 TLB hit), forward clock progress, and
// nothing that moves non-replayed model state — no stores, misses,
// fills, coherence traffic, atomics, or kernel work. A round with zero
// loads is rejected too: it watches no memory, and the pure-Pause rounds
// it would describe (fault-stall chunks, a server awaiting Attach) read
// host state no watched word guards.
func (d warpSnap) clean() bool {
	return d.clock > 0 &&
		d.cache.Loads > 0 &&
		d.instr >= d.cache.Loads &&
		d.cache.Stores == 0 &&
		d.cache.L1Misses == 0 &&
		d.cache.L2Misses == 0 &&
		d.cache.LLCLoadMisses == 0 &&
		d.cache.LLCStoreMisses == 0 &&
		d.cache.Invalidations == 0 &&
		d.cache.DirtyTransfers == 0 &&
		d.tlb.LoadHits == d.cache.Loads &&
		d.tlb.LoadMisses == 0 &&
		d.tlb.StoreHits == 0 &&
		d.tlb.StoreMisses == 0 &&
		d.tlb.STLBHits == 0 &&
		d.atomics == 0 &&
		d.kernelCycles == 0
}

// covers reports whether script accounts for all of round delta d: an
// op the script cannot hold (a block read) leaves loads, cycles or
// instructions unexplained.
func covers(script []scriptOp, d *warpSnap) bool {
	var loads, clock, instr uint64
	for i := range script {
		if script[i].kind == opLoad {
			loads++
		}
		clock += script[i].clock
		instr += script[i].instr
	}
	return loads == d.cache.Loads && clock == d.clock && instr == d.instr
}

// WarpLoop runs a declared wait loop: `for Until unreached { if Round()
// { return } }`, parking the thread once the loop is proven steady when
// the machine was configured with Warp. Behaviour — every counter,
// every yield, every scheduling decision — is bit-identical with and
// without warp; only the host work differs.
func (t *Thread) WarpLoop(s WaitSpec) {
	if s.Round == nil {
		panic("sim: WarpLoop needs a Round")
	}
	if !t.m.cfg.Warp || t.mode != modePlain {
		// Warp off, or a wait nested inside a round being recorded or
		// replayed: the outer round's script covers this one's ops.
		for s.Until == 0 || t.clock < s.Until {
			if s.Round() {
				return
			}
		}
		return
	}
	var (
		rounds uint64      // concrete rounds since the call (warm-up count)
		snaps  [2]warpSnap // double-buffered fingerprints (no copies)
		cur    = &snaps[0] // snapshot at the current loop position
		prev   = &snaps[1]
		curOK  bool   // cur describes the state after the last round
		steady bool   // t.prev holds the last round's clean script
		since  uint64 // the settle epoch t.prev's round began in
		dirty  int    // consecutive dirty rounds
		skip   int    // plain rounds left before recording resumes
	)
	for s.Until == 0 || t.clock < s.Until {
		if rounds < warpWarmup || skip > 0 {
			// The first round after a wake replays its prefix here.
			done := s.Round()
			if t.mode == modeReplay {
				panic(fmt.Sprintf("sim: %s's replayed wait round ended early", t.name))
			}
			if done {
				return
			}
			rounds++
			if skip > 0 {
				skip--
				curOK = false
			}
			continue
		}
		if !curOK {
			t.snapInto(cur)
			curOK = true
		}
		prev, cur = cur, prev
		ep := t.m.settles
		t.mode, t.script = modeRecord, t.script[:0]
		done := s.Round()
		t.mode = modePlain
		if done {
			return
		}
		rounds++
		t.snapInto(cur)
		d := cur.sub(prev)
		if !d.clean() || !covers(t.script, &d) {
			// The round did real work: the steady state (if any) must
			// be re-proven, and a loop that keeps recording dirty is
			// busy, so back the detector off rather than tax it.
			steady = false
			if dirty++; dirty >= warpDirtyLimit {
				skip = min(4<<(dirty-warpDirtyLimit), warpMaxBackoff)
			}
			continue
		}
		dirty = 0
		// The two rounds must share one settle epoch: a settle means
		// host state they read may have changed after they read it.
		if !steady || since != ep || t.m.settles != ep || !slices.Equal(t.script, t.prev) {
			t.script, t.prev = t.prev, t.script
			steady, since = true, ep
			continue
		}
		if !t.park(&s) {
			steady = false
			skip = warpMaxBackoff
			continue
		}
		// Woken (or settled): re-prove from scratch, with one plain
		// round (the interrupted one, replayed) and no further warm-up —
		// this loop has just been steady.
		rounds, steady, curOK = warpWarmup-1, false, false
	}
}

// parking is a parked thread's steady round, resolved for arithmetic
// advance, and its position in the round. Its slices are reused from
// park to park, so a steady wait allocates nothing per park or lease.
type parking struct {
	ops  []scriptOp
	pre  []uint64 // pre[i]: cycles before op i within the round; pre[n] = round cycles
	ipre []uint64 // instructions before op i
	lpre []int    // loads before op i
	// Per load, in issue order: L1 way, L1 TLB way, address class.
	idxs  []int
	ways  []int
	cls   []region.Class
	watch []watchWord

	j      int    // the next op of the current round
	c0, i0 uint64 // clock and instructions at the current round's start
	until  uint64
	// horizon bounds round starts and the wall clock (0 = none).
	horizon uint64
	rounds  uint64 // rounds completed arithmetically since parking
	epoch   uint64 // address-space epoch the translations were made in

	// The cheap check's counters as of resolve or the last full check:
	// this core's L1 drop count and the region table's mark count.
	drops, marks uint64

	// The loads walked but not yet charged: from op from of a round,
	// across ends round ends, up to op j.
	from int
	ends uint64
}

// watchWord is one distinct word a parked round loads, with everything
// the round's cost and outcome depend on.
type watchWord struct {
	frame *mem.Frame
	addr  uint64
	size  int
	val   uint64
	line  uint64 // physical line tag
	l1    int    // its L1 way
	shift uint   // translation granularity
	way   int    // its L1 TLB way
	clsp  *region.Class
	class region.Class
}

// park hands the proven round t.prev to the scheduler and suspends the
// thread as parked. It returns false (without parking) when nothing
// would bound an advance or the loop is already at a bound; otherwise it
// returns once the thread is woken or settled.
func (t *Thread) park(s *WaitSpec) bool {
	var h uint64
	if s.Horizon != nil {
		h = s.Horizon()
	}
	if (s.Until != 0 && t.clock >= s.Until) || (h != 0 && t.clock >= h) ||
		(t.lease == ^uint64(0) && s.Until == 0 && h == 0) {
		return false
	}
	pk := &t.pk
	pk.ops, t.prev = t.prev, pk.ops[:0]
	if !pk.resolve(t) {
		return false
	}
	pk.j, pk.c0, pk.i0, pk.rounds = 0, t.clock, t.instr, 0
	pk.from, pk.ends = 0, 0
	pk.until, pk.horizon = s.Until, h
	t.m.park(t)
	t.yield(struct{}{})
	if s.Skipped != nil && pk.rounds > 0 {
		s.Skipped(pk.rounds, pk.rounds*pk.pre[len(pk.ops)])
	}
	return true
}

// resolve derives the per-op prefix sums, per-load ways and the watched
// words of pk.ops, and records the epoch and the cheap check's counters
// it proved them under. It fails when a load no longer hits, or when
// the round loaded one word twice with different values.
func (pk *parking) resolve(t *Thread) bool {
	pk.pre, pk.ipre, pk.lpre = pk.pre[:0], pk.ipre[:0], pk.lpre[:0]
	pk.idxs, pk.ways, pk.cls, pk.watch = pk.idxs[:0], pk.ways[:0], pk.cls[:0], pk.watch[:0]
	var clock, instr uint64
	for i := range pk.ops {
		op := &pk.ops[i]
		pk.pre = append(pk.pre, clock)
		pk.ipre = append(pk.ipre, instr)
		pk.lpre = append(pk.lpre, len(pk.idxs))
		clock += op.clock
		instr += op.instr
		if op.kind != opLoad {
			continue
		}
		e := t.translate(op.arg)
		line := (e.base | op.arg&mem.PageMask) >> cache.LineShift
		ci := t.caches.ProbeL1(t.core, line)
		wi := t.tlb.ProbeL1Way(op.arg, uint(e.shift))
		if ci < 0 || wi < 0 {
			return false
		}
		clsp := &e.cls[(op.arg&mem.PageMask)>>granuleShift]
		pk.idxs = append(pk.idxs, ci)
		pk.ways = append(pk.ways, wi)
		pk.cls = append(pk.cls, *clsp)
		seen := false
		for _, w := range pk.watch {
			if w.addr == op.arg && w.size == int(op.size) {
				if w.val != op.val {
					return false
				}
				seen = true
				break
			}
		}
		if !seen {
			pk.watch = append(pk.watch, watchWord{
				frame: e.frame, addr: op.arg, size: int(op.size), val: op.val,
				line: line, l1: ci, shift: uint(e.shift), way: wi, clsp: clsp, class: *clsp,
			})
		}
	}
	pk.pre = append(pk.pre, clock)
	pk.ipre = append(pk.ipre, instr)
	pk.lpre = append(pk.lpre, len(pk.idxs))
	pk.epoch = t.m.as.Epoch()
	pk.drops, pk.marks = t.caches.L1Drops(t.core), t.m.regions.marks
	return true
}

// check reports whether the round would still run exactly as recorded:
// every watched word holds its recorded value and class, in the same L1
// and L1 TLB ways, under the same address space. While none of the
// three counters moved since resolve or the last full check, comparing
// the values is the whole check (see Soundness at the top of this file); a full
// check increments *full.
func (pk *parking) check(t *Thread, full *uint64) bool {
	drops, marks := t.caches.L1Drops(t.core), t.m.regions.marks
	if t.m.as.Epoch() == pk.epoch && drops == pk.drops && marks == pk.marks {
		for i := range pk.watch {
			if w := &pk.watch[i]; w.frame.Load(w.addr&mem.PageMask, w.size) != w.val {
				return false
			}
		}
		return true
	}
	*full++
	if t.m.as.Epoch() != pk.epoch {
		return false
	}
	for i := range pk.watch {
		w := &pk.watch[i]
		if w.frame.Load(w.addr&mem.PageMask, w.size) != w.val || *w.clsp != w.class ||
			!t.caches.L1Holds(t.core, w.l1, w.line) || !t.tlb.L1Holds(w.way, w.addr, w.shift) {
			return false
		}
	}
	pk.drops, pk.marks = drops, marks
	return true
}

// applyOps advances the clock through ops [a, b) of the parked round;
// their loads are charged later, by charge.
func (t *Thread) applyOps(a, b int) {
	pk := &t.pk
	t.clock += pk.pre[b] - pk.pre[a]
	t.instr += pk.ipre[b] - pk.ipre[a]
}

// applyRounds advances the clock through k whole parked rounds from a
// round boundary; their loads are charged later, by charge.
func (t *Thread) applyRounds(k uint64) {
	pk := &t.pk
	n := len(pk.ops)
	t.clock += k * pk.pre[n]
	t.instr += k * pk.ipre[n]
	pk.c0, pk.i0 = t.clock, t.instr
	pk.ends += k
}

// charge applies the loads walked since the last charge to the core's
// L1 and L1 TLB as one sequence: the rest of the round from op pk.from,
// pk.ends-1 whole rounds, and the next round up to op pk.j (see Parking
// at the top of this file).
func (t *Thread) charge() {
	pk := &t.pk
	la, lb := pk.lpre[pk.from], pk.lpre[pk.j]
	if pk.ends == 0 {
		t.replayLoads(la, lb, 1)
	} else {
		n := len(pk.idxs)
		t.replayLoads(la, n, 1)
		t.replayLoads(0, n, pk.ends-1)
		t.replayLoads(0, lb, 1)
	}
	pk.from, pk.ends = pk.j, 0
}

// replayLoads charges k repetitions of the round's loads [a, b).
func (t *Thread) replayLoads(a, b int, k uint64) {
	pk := &t.pk
	t.caches.ReplayL1Loads(t.core, pk.idxs[a:b], pk.cls[a:b], k)
	t.tlb.ReplayL1LoadHits(pk.ways[a:b], k)
}

// chargeCore charges every parked thread on core, so its cache and TLB
// counters read exactly what the stepped run shows.
func (m *Machine) chargeCore(core int) {
	for _, p := range m.parked {
		if p.core == core {
			p.charge()
		}
	}
}

// wholeRounds returns how many whole rounds fit from the round boundary
// pk.c0: each must start below until and horizon and run every op
// before the lease ends (op i steps at its start clock, which must not
// pass lease).
func (pk *parking) wholeRounds(lease uint64) uint64 {
	n := len(pk.ops)
	rc, last := pk.pre[n], pk.pre[n-1]
	if pk.c0+last > lease {
		return 0
	}
	k := (lease-pk.c0-last)/rc + 1
	for _, b := range [2]uint64{pk.until, pk.horizon} {
		if b != 0 {
			k = min(k, (b-1-pk.c0)/rc+1)
		}
	}
	return k
}

// advance serves parked thread t's lease (t.lease) arithmetically. It
// reports true when t stays parked through the lease, false when it was
// woken and must be resumed to continue concretely within the lease.
func (m *Machine) advance(t *Thread) bool {
	m.warp.ParkedLeases++
	pk := &t.pk
	if !pk.check(t, &m.warp.FullChecks) {
		m.unpark(t, t.lease)
		return false
	}
	lease, n := t.lease, len(pk.ops)
	from := t.clock
	var rounds uint64
	woke := false
	for {
		if pk.j == 0 {
			// A round boundary: the loop's own checks come first.
			if (pk.until != 0 && pk.c0 >= pk.until) || (pk.horizon != 0 && pk.c0 >= pk.horizon) ||
				(lease == ^uint64(0) && pk.until == 0 && pk.horizon == 0) {
				woke = true
				break
			}
			if k := pk.wholeRounds(lease); k > 0 {
				t.applyRounds(k)
				rounds += k
				continue
			}
		}
		// Op by op through the rest of the round, up to the op whose
		// step would find the lease over.
		b := pk.j
		for b < n && pk.c0+pk.pre[b] <= lease {
			b++
		}
		t.applyOps(pk.j, b)
		if b < n {
			pk.j = b
			break
		}
		pk.j, pk.c0, pk.i0 = 0, t.clock, t.instr
		pk.ends++
		rounds++
	}
	if cy := t.clock - from; cy > 0 {
		m.warp.CyclesWarped += cy
		m.warp.LargestSkip = max(m.warp.LargestSkip, cy)
	}
	if rounds > 0 {
		pk.rounds += rounds
		m.warp.Windows++
		m.warp.Rounds += rounds
	}
	if woke {
		m.unpark(t, lease)
		return false
	}
	return true
}

// park registers t as parked.
func (m *Machine) park(t *Thread) {
	t.parked = true
	m.parked = append(m.parked, t)
	m.warp.Parks++
	if t.daemon {
		m.warp.DaemonParks++
	}
	m.noteHorizons()
}

// unpark wakes t: its coroutine, once resumed, replays the interrupted
// round's first pk.j ops under a zero lease (any other op traps in
// step) and then continues concretely under lease.
func (m *Machine) unpark(t *Thread, lease uint64) {
	t.parked = false
	i := slices.Index(m.parked, t)
	last := len(m.parked) - 1
	m.parked[i] = m.parked[last]
	m.parked[last] = nil
	m.parked = m.parked[:last]
	m.noteHorizons()
	t.charge()
	pk := &t.pk
	if pk.j == 0 {
		t.lease = lease
		return
	}
	t.clock, t.instr = pk.c0, pk.i0
	t.mode, t.replayAt, t.replayEnd, t.replayLease = modeReplay, 0, pk.j, lease
	t.lease = 0
}

// noteHorizons caches the lowest horizon among parked threads, so Run
// checks the wall against one number per lease.
func (m *Machine) noteHorizons() {
	m.horizon = ^uint64(0)
	for _, p := range m.parked {
		if h := p.pk.horizon; h != 0 && h < m.horizon {
			m.horizon = h
		}
	}
}

// materialize wakes parked thread p and runs its coroutine up to the op
// at which the stepped run holds it suspended: the replayed prefix and
// the host code around it run now, before whatever the caller changes
// next. p then waits for its next lease as an ordinary thread.
func (m *Machine) materialize(p *Thread) {
	m.unpark(p, 0)
	if _, more := p.next(); !more || p.parked {
		panic(fmt.Sprintf("sim: settling %s did not stop it at its next op", p.name))
	}
}

// settle materializes every parked thread and opens a new settle epoch,
// so no wait round recorded before it can prove a loop steady.
func (m *Machine) settle() {
	m.settles++
	for len(m.parked) > 0 {
		m.materialize(m.parked[len(m.parked)-1])
	}
}

// settleWall materializes the parked threads whose horizon the wall
// clock has reached, before the probe chain publishes that wall.
func (m *Machine) settleWall(wall uint64) {
	for i := 0; i < len(m.parked); {
		if p := m.parked[i]; p.pk.horizon != 0 && p.pk.horizon <= wall {
			m.materialize(p) // swaps the last parked thread into slot i
			continue
		}
		i++
	}
}

// Settle brings every parked thread to the exact point the stepped
// engine holds it at. A thread calls it before writing host state that
// another thread's wait round reads (the parked-round contract).
func (t *Thread) Settle() { t.m.settle() }

// Settle is Thread.Settle for host observers: a probe that reads host
// state a wait round writes mid-round calls it first.
func (m *Machine) Settle() { m.settle() }
