package ring

import (
	"math/rand"
	"testing"

	"nextgenmalloc/internal/sim"
)

// The model-based test drives one ring with an arbitrary interleaving
// of every producer and consumer operation, fault hooks included, and
// checks each step against a host FIFO. An entry is staged (written,
// not published), hidden (published with a dropped doorbell) or
// visible; the consumer may only ever see the visible prefix.

type entryState uint8

const (
	staged entryState = iota
	hidden
	visible
)

type modelEntry struct {
	w0, w1 uint64
	state  entryState
}

// word builds the n-th request: a first word that exercises every bit
// the caller owns (payload below TagBit, seal byte above it) and a
// second word with no structure at all.
func word(n uint64) (w0, w1 uint64) {
	return (n*0x9e3779b97f4a7c15)&^TagBit | n&0xff<<56, ^n
}

// runSchedule interprets ops as a schedule on a fresh ring of the given
// size and returns how many slots were popped. Low three bits pick the
// operation, the rest its argument:
//
//	0,1 TryStage   2 Publish   3 TryPush   4,5 TryPop   6 TryPop until empty, at most arg%6 times
//	7 arg&2==0: drop the next publication; else Republish
func runSchedule(t testing.TB, slots int, ops []byte) (pops uint64) {
	t.Helper()
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), slots)
		dropNext := false
		r.SetDropHook(func() bool { d := dropNext; dropNext = false; return d })
		var model []modelEntry
		var next uint64
		count := func(st entryState) (n int) {
			for _, e := range model {
				if e.state == st {
					n++
				}
			}
			return n
		}
		stage := func(push func(w0, w1 uint64) bool) {
			w0, w1 := word(next)
			ok := push(w0, w1)
			if ok != (len(model) < slots) {
				t.Fatalf("op %d: push into %d/%d slots returned %v", next, len(model), slots, ok)
			}
			if ok {
				model = append(model, modelEntry{w0, w1, staged})
				next++
			}
		}
		publish := func(drop bool) {
			if count(staged) == 0 {
				return // nothing staged: the hook is not consulted
			}
			if drop {
				for i := range model {
					if model[i].state == staged {
						model[i].state = hidden
					}
				}
				return
			}
			for i := range model {
				model[i].state = visible
			}
		}
		republish := func() {
			for i := range model {
				if model[i].state == hidden {
					model[i].state = visible
				}
			}
		}
		expectPop := func(got [][2]uint64, asked int) {
			want := 0
			for want < len(model) && want < asked && model[want].state == visible {
				want++
			}
			if len(got) != want {
				t.Fatalf("pop of %d returned %d slots, model has %d visible at the front (%d staged, %d hidden)",
					asked, len(got), want, count(staged), count(hidden))
			}
			for i, g := range got {
				if g[0]&TagBit != 0 {
					t.Fatalf("popped first word %#x carries the ring's tag bit", g[0])
				}
				if g != [2]uint64{model[i].w0, model[i].w1} {
					t.Fatalf("pop %d = %#x, want {%#x, %#x} (FIFO order broken, or a slot lost or duplicated)",
						pops+uint64(i), g, model[i].w0, model[i].w1)
				}
			}
			model = model[len(got):]
			pops += uint64(len(got))
		}
		step := func(b byte) {
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 1:
				stage(func(w0, w1 uint64) bool { return r.TryStage(th, w0, w1) })
			case 2:
				publish(dropNext)
				r.Publish(th)
			case 3:
				full, drop := len(model) == slots, dropNext
				stage(func(w0, w1 uint64) bool { return r.TryPush(th, w0, w1) })
				if !full {
					publish(drop)
				}
			case 4, 5, 6:
				asked := 1
				if b&7 == 6 {
					asked = arg % 6
				}
				var got [][2]uint64
				for len(got) < asked {
					w0, w1, ok := r.TryPop(th)
					if !ok {
						break
					}
					got = append(got, [2]uint64{w0, w1})
				}
				expectPop(got, asked)
			case 7:
				if arg&2 == 0 {
					dropNext = true
				} else {
					republish()
					r.Republish(th)
				}
			}
			if r.HostDepth() != len(model) || r.Staged() != count(staged) || r.Dropped() != (count(hidden) > 0) {
				t.Fatalf("after op %#x: HostDepth %d Staged %d Dropped %v, model %d entries, %d staged, %d hidden",
					b, r.HostDepth(), r.Staged(), r.Dropped(), len(model), count(staged), count(hidden))
			}
		}
		for _, b := range ops {
			step(b)
		}
		// Quiescence: deliver everything, drain, and balance the ledger.
		dropNext = false
		for _, b := range []byte{2, 7 | 2<<3} {
			step(b)
		}
		for len(model) > 0 {
			step(4)
		}
		step(4) // and the ring now reads empty
		if st := r.Stats(); st.Pushes != st.Pops || st.Pops != pops || pops != next {
			t.Fatalf("at quiescence: %d pushes, %d pops, %d popped by the test, %d staged in all", st.Pushes, st.Pops, pops, next)
		}
	})
	return pops
}

// TestScheduleModel runs random schedules long enough that every ring
// size wraps its lap tag at least three times.
func TestScheduleModel(t *testing.T) {
	for _, slots := range []int{4, 16, 64} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed<<8 | int64(slots)))
			ops := make([]byte, 40*slots)
			rng.Read(ops)
			if pops := runSchedule(t, slots, ops); pops < 3*uint64(slots) {
				t.Errorf("%d slots, seed %d: only %d pops, want at least three laps", slots, seed, pops)
			}
		}
	}
}

// FuzzRingSchedule is the model-based test with the fuzzer choosing the
// schedule and the ring size.
func FuzzRingSchedule(f *testing.F) {
	f.Add(uint8(0), []byte{3, 4, 3, 4, 3, 4, 3, 4, 3, 4})               // one lap and a bit, unbatched
	f.Add(uint8(1), []byte{0, 0, 0, 4, 2, 6 | 5<<3, 4})                 // staged slots stay invisible
	f.Add(uint8(0), []byte{7, 3, 4, 3, 4, 7 | 2<<3, 4, 4})              // drop, blocked successor, republish
	f.Add(uint8(2), []byte{7, 0, 0, 2, 0, 2, 6 | 4<<3, 3, 6 | 4<<3})    // a surviving publish heals a drop
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 3, 2, 6 | 5<<3, 6 | 0<<3, 3}) // full ring, zero-pop drain
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		runSchedule(t, 4<<(2*(size%3)), ops)
	})
}

// TestReservedBitPanics: a caller word with TagBit set would be
// indistinguishable from a lap tag, so staging one is a bug.
func TestReservedBitPanics(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("TryStage accepted a first word with the reserved tag bit set")
			}
		}()
		New(th.Mmap(1), 4).TryPush(th, TagBit|1, 0)
	})
}

// TestOneLineTransferPerRequest pins the point of the in-slot
// doorbell: in steady state a push/pop pair across two cores moves one
// cache line — one invalidation issued by the producer (its first store
// to the slot line takes it back from the consumer), one dirty transfer
// taken by the consumer (its poll of the slot's first word). The
// index-published ring this one replaced cost two of each: the slot
// line and the shared tail line. A dropped doorbell costs the producer
// exactly what a delivered one does.
func TestOneLineTransferPerRequest(t *testing.T) {
	const slots, warm, pairs = 16, 2 * 16, 5 * 16
	m := sim.New(sim.DefaultConfig())
	page, _ := m.Kernel().Mmap(1)
	r := New(page, slots)
	drop := false
	r.SetDropHook(func() bool { return drop })
	// Host-side turn-taking (one simulated thread runs at a time): the
	// consumer polls only when a slot is there, so no empty poll adds a
	// transfer of its own.
	pushed, popped := 0, 0
	var prod, cons, dropped [2]sim.Counters
	m.Spawn("producer", 0, func(th *sim.Thread) {
		for i := 0; i < warm+pairs; i++ {
			if i == warm {
				prod[0] = th.Counters()
			}
			r.Push(th, uint64(i), uint64(i))
			pushed++
			for popped < pushed {
				th.Pause(16)
			}
		}
		prod[1] = th.Counters()
		drop = true
		dropped[0] = th.Counters()
		r.Push(th, 1, 1)
		dropped[1] = th.Counters()
	})
	m.Spawn("consumer", 1, func(th *sim.Thread) {
		for i := 0; i < warm+pairs; i++ {
			for pushed == popped {
				th.Pause(16)
			}
			if i == warm {
				cons[0] = th.Counters()
			}
			if _, _, ok := r.TryPop(th); !ok {
				t.Errorf("pair %d: published slot not visible", i)
			}
			popped++
		}
		cons[1] = th.Counters()
	})
	m.Run()
	if got := prod[1].Invalidations - prod[0].Invalidations; got != pairs {
		t.Errorf("producer issued %d invalidations over %d pairs, want one each", got, pairs)
	}
	if got := cons[1].DirtyTransfers - cons[0].DirtyTransfers; got != pairs {
		t.Errorf("consumer took %d dirty transfers over %d pairs, want one each", got, pairs)
	}
	// The head index costs a transfer each way once per lap, and only then.
	if got := prod[1].DirtyTransfers - prod[0].DirtyTransfers; got != pairs/slots {
		t.Errorf("producer took %d dirty transfers over %d laps, want one per lap (the full check)", got, pairs/slots)
	}
	if got := cons[1].Invalidations - cons[0].Invalidations; got != pairs/slots {
		t.Errorf("consumer issued %d invalidations over %d laps, want one per lap (the head store)", got, pairs/slots)
	}
	perPush := (prod[1].Stores - prod[0].Stores) / pairs
	if got := dropped[1].Stores - dropped[0].Stores; got != perPush || perPush != 2 {
		t.Errorf("a delivered push costs %d stores and a dropped one %d, want 2 and 2", perPush, got)
	}
}

// TestStagingStaysOffThePolledLine pins what coalescing rests on: the
// consumer polls the very line a batch is headed for, so a staged slot
// must not touch it. With an empty poll after every TryStage, a batch of
// one line's worth of slots still moves that line once — one producer
// invalidation at Publish, one consumer dirty transfer at the first pop. (A
// stage-time store to the slot would make it one of each per slot.)
func TestStagingStaysOffThePolledLine(t *testing.T) {
	const slots, width = 16, sim.LineSize / SlotSize
	const warm, batches = 2 * slots / width, 5 * slots / width
	m := sim.New(sim.DefaultConfig())
	page, _ := m.Kernel().Mmap(1)
	r := New(page, slots)
	// Host-side turn-taking: the producer hands the consumer a turn after
	// every stage (an empty poll) and after every Publish (the drain).
	asked, done := 0, 0
	var prod, cons [2]sim.Counters
	m.Spawn("producer", 0, func(th *sim.Thread) {
		yield := func() {
			for asked++; done < asked; {
				th.Pause(16)
			}
		}
		for b := 0; b < warm+batches; b++ {
			if b == warm {
				prod[0] = th.Counters()
			}
			for j := 0; j < width; j++ {
				if !r.TryStage(th, uint64(b), uint64(j)) {
					t.Errorf("batch %d: ring full", b)
				}
				yield()
			}
			r.Publish(th)
			yield()
		}
		prod[1] = th.Counters()
	})
	m.Spawn("consumer", 1, func(th *sim.Thread) {
		for b := 0; b < warm+batches; b++ {
			if b == warm {
				cons[0] = th.Counters()
			}
			for j := 0; j <= width; j++ {
				for done == asked {
					th.Pause(16)
				}
				want := 0
				if j == width {
					want = width
				}
				got := 0
				for _, _, ok := r.TryPop(th); ok; _, _, ok = r.TryPop(th) {
					got++
				}
				if got != want {
					t.Errorf("batch %d, turn %d: popped %d slots, want %d", b, j, got, want)
				}
				done++
			}
		}
		cons[1] = th.Counters()
	})
	m.Run()
	if got := prod[1].Invalidations - prod[0].Invalidations; got != batches {
		t.Errorf("producer issued %d invalidations over %d polled batches, want one each", got, batches)
	}
	if got := cons[1].DirtyTransfers - cons[0].DirtyTransfers; got != batches {
		t.Errorf("consumer took %d dirty transfers over %d polled batches, want one each", got, batches)
	}
}
