package sim

import (
	"reflect"
	"slices"
	"testing"

	"nextgenmalloc/internal/region"
)

// Lockstep tests for parking: every case runs a poller (a WarpLoop round
// of three loads and a Pause) beside a thread that ends its steadiness
// in one particular way, once with warp on and once with it off, and
// requires the two runs to agree on everything observable.

// pollRun is what a warp-on and a warp-off run must agree on.
type pollRun struct {
	Wall    uint64
	Cores   []Counters
	Classes []ClassBreakdown
	// Seen logs the poller's round start clock and loaded values
	// whenever the values differ from the round before.
	Seen [][]uint64
	// Walls is the probe-observed wall sequence.
	Walls []uint64
	// Leases and LeaseClasses, when snapshots are on, hold every core's
	// counters as the probe read them after every lease: a parked
	// thread's counters must be exact whenever they are read.
	Leases       [][]Counters
	LeaseClasses [][]ClassBreakdown
}

// poller is the waiting thread's loop.
type poller struct {
	words   func() []uint64 // the words a round loads, in order
	done    func(vals []uint64) bool
	extra   func(th *Thread) // host-state-dependent ops after the loads
	pause   int
	exec    int
	until   uint64
	horizon func() uint64
}

func (p *poller) run(th *Thread, seen *[][]uint64) {
	var last, vals []uint64
	th.WarpLoop(WaitSpec{
		Round: func() bool {
			start := th.Clock()
			vals = vals[:0]
			for _, w := range p.words() {
				vals = append(vals, th.Load64(w))
			}
			if !slices.Equal(vals, last) {
				*seen = append(*seen, append([]uint64{start}, vals...))
				last = append(last[:0], vals...)
			}
			if p.done(vals) {
				return true
			}
			if p.extra != nil {
				p.extra(th)
			}
			th.Exec(p.exec)
			th.Pause(p.pause)
			return false
		},
		Until:   p.until,
		Horizon: p.horizon,
	})
}

// parkCase builds one scenario on m: words are four zeroed words on
// separate lines (the last one is the done flag by convention), and
// seen is the poller's log.
type parkCase func(m *Machine, words [4]uint64, seen *[][]uint64)

// runPark runs c under cfg with warp on or off. When snap is set the
// probe snapshots every core's counters after every lease, taking the
// class counters first on even leases and last on odd ones, so a reader
// that forgot to charge a parked thread's loads shows up whichever it
// is. watch, when non-nil, is called after every lease with the poller
// thread (thread 0).
func runPark(cfg Config, warp, snap bool, c parkCase, watch func(p *Thread)) (pollRun, WarpStats) {
	cfg.Warp = warp
	m := New(cfg)
	base, _ := m.Kernel().Mmap(1)
	words := [4]uint64{base, base + 64, base + 128, base + 192}
	var r pollRun
	c(m, words, &r.Seen)
	m.AddProbe(func(wall uint64) {
		if snap {
			cores := make([]Counters, m.Cores())
			classes := make([]ClassBreakdown, m.Cores())
			for core := range cores {
				if len(r.Walls)%2 == 0 {
					classes[core] = m.CoreClassCounters(core)
					cores[core] = m.CoreCounters(core)
				} else {
					cores[core] = m.CoreCounters(core)
					classes[core] = m.CoreClassCounters(core)
				}
			}
			r.Leases = append(r.Leases, cores)
			r.LeaseClasses = append(r.LeaseClasses, classes)
		}
		r.Walls = append(r.Walls, wall)
		if watch != nil {
			watch(m.threads[0])
		}
	})
	r.Wall = m.Run()
	for core := 0; core < m.Cores(); core++ {
		r.Cores = append(r.Cores, m.CoreCounters(core))
		r.Classes = append(r.Classes, m.CoreClassCounters(core))
	}
	return r, m.WarpStats()
}

// lockstep runs c both ways and fails unless the runs agree, lease by
// lease; a warp-on run that reads no counters until the end (so its
// charges span many leases) must agree too. It returns the warp-on
// ledger.
func lockstep(t testing.TB, cfg Config, c parkCase) WarpStats {
	t.Helper()
	off, offW := runPark(cfg, false, true, c, nil)
	on, onW := runPark(cfg, true, true, c, nil)
	if offW != (WarpStats{}) {
		t.Fatalf("warp-off run reported warp activity: %+v", offW)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("parking changed the run:\noff: %+v\non:  %+v", off, on)
	}
	lazy, _ := runPark(cfg, true, false, c, nil)
	off.Leases, off.LeaseClasses = nil, nil
	if !reflect.DeepEqual(off, lazy) {
		t.Fatalf("charging parked loads only at the end changed the run:\noff: %+v\non:  %+v", off, lazy)
	}
	return onW
}

// execUntil computes in chunks of k cycles until the clock reaches c,
// so the scheduler interleaves the thread finely with the poller.
func execUntil(th *Thread, c uint64, k int) {
	for th.Clock() < c {
		th.Exec(k)
	}
}

// threeWords is the standard round: words 0-2, done when word 3 is set.
func threeWords(words [4]uint64) *poller {
	return &poller{
		words: func() []uint64 { return words[:] },
		done:  func(v []uint64) bool { return v[3] != 0 },
		pause: 5,
	}
}

// writerCase has a second thread store to word w after delay cycles,
// then set the done flag 700 cycles later.
func writerCase(delay uint64, w int) parkCase {
	return func(m *Machine, words [4]uint64, seen *[][]uint64) {
		p := threeWords(words)
		m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
		m.Spawn("writer", 1, func(th *Thread) {
			th.Exec(int(delay))
			th.Store64(words[w], delay)
			th.Exec(700)
			th.Store64(words[3], 1)
		})
	}
}

// TestParkWakeOnWrite sweeps a writer's store across every op of the
// poller's round: the poller must wake from every op index and continue
// exactly as the stepped run does.
func TestParkWakeOnWrite(t *testing.T) {
	woke := map[int]bool{}
	for _, q := range []uint64{64, 5} {
		cfg := testCfg()
		cfg.Quantum = q
		for d := uint64(3000); d < 3000+3*17; d++ {
			c := writerCase(d, int(d%3))
			w := lockstep(t, cfg, c)
			if w.Parks == 0 || w.ParkedLeases == 0 {
				t.Fatalf("quantum %d delay %d: the poller never parked: %+v", q, d, w)
			}
			// Which op index did the wake land on? The last parked
			// position before the poller shows up unparked.
			wasParked, j := false, 0
			runPark(cfg, true, false, c, func(p *Thread) {
				if wasParked && !p.parked {
					woke[j] = true
				}
				wasParked, j = p.parked, p.pk.j
			})
		}
	}
	for j := 0; j < 4; j++ { // three loads and the pause
		if !woke[j] {
			t.Errorf("no wake landed at op %d (saw %v)", j, woke)
		}
	}
}

// TestParkWakeOnMark has a second thread re-mark a watched word's
// granule while the poller is parked, with no store: only the region
// table changed, and the poller's loads of that word must be attributed
// to the new class from the same load on as in the stepped run.
func TestParkWakeOnMark(t *testing.T) {
	for d := uint64(3000); d < 3000+3*17; d++ {
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			p := threeWords(words)
			m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
			m.Spawn("marker", 1, func(th *Thread) {
				execUntil(th, d, 1+int(d%41))
				th.MarkRegion(words[d%3], 8, region.Ring)
				th.Exec(700)
				th.Store64(words[3], 1)
			})
		}
		w := lockstep(t, testCfg(), c)
		if w.Parks < 2 {
			t.Fatalf("delay %d: the poller parked %d times, want before and after the mark", d, w.Parks)
		}
		off, _ := runPark(testCfg(), false, false, c, nil)
		if off.Classes[0][region.Ring].Loads == 0 {
			t.Fatalf("delay %d: no poller load was attributed to the new class", d)
		}
	}
}

// TestParkWakeOnEviction has a streaming thread evict the poller's
// watched lines from a small inclusive LLC: back-invalidation must wake
// it even though no watched value changes.
func TestParkWakeOnEviction(t *testing.T) {
	cfg := testCfg()
	cfg.Profile.Cache.L2Size = 16 << 10
	cfg.Profile.Cache.LLCSize = 64 << 10
	c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
		p := threeWords(words)
		m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
		buf, _ := m.Kernel().Mmap(64) // 256 KiB: four times the LLC
		m.Spawn("streamer", 1, func(th *Thread) {
			for pass := 0; pass < 3; pass++ {
				th.Exec(2000)
				th.BlockRead(buf, 64<<12)
			}
			th.Store64(words[3], 1)
		})
	}
	w := lockstep(t, cfg, c)
	off, _ := runPark(cfg, false, false, c, nil)
	if w.Parks < 2 {
		t.Fatalf("the poller parked %d times, want a park per quiet stretch: %+v", w.Parks, w)
	}
	if misses := off.Cores[0].L1Misses; misses <= uint64(len(off.Seen))+3 {
		t.Fatalf("poller took %d L1 misses for %d value changes: nothing was evicted", misses, len(off.Seen))
	}
}

// TestParkSettleBeforeHostWrite has another thread settle and then
// shrink the host-side word count the poller's round reads.
func TestParkSettleBeforeHostWrite(t *testing.T) {
	for d := uint64(3000); d < 3000+4*17; d++ {
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			n := 3
			p := threeWords(words)
			p.words = func() []uint64 { return append(words[:n:n], words[3]) }
			p.done = func(v []uint64) bool { return v[len(v)-1] != 0 }
			m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
			m.Spawn("mutator", 1, func(th *Thread) {
				execUntil(th, d, 1+int(d%41))
				th.Settle()
				n = 1
				th.Exec(900)
				th.Store64(words[3], 1)
			})
		}
		if w := lockstep(t, testCfg(), c); w.Parks < 2 {
			t.Fatalf("delay %d: the poller parked %d times, want before and after the write", d, w.Parks)
		}
	}
}

// TestParkSettleWhileProving lands the settle while the poller is still
// proving its loop steady: with long rounds the two recorded rounds span
// several leases, so some settles fall between a round's host read and
// the park it would prove. A proof recorded across the host write must
// not park the poller.
func TestParkSettleWhileProving(t *testing.T) {
	for d := uint64(1300); d < 2400; d += 7 {
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			n := 3
			p := threeWords(words)
			p.pause = 200
			p.words = func() []uint64 { return append(words[:n:n], words[3]) }
			p.done = func(v []uint64) bool { return v[len(v)-1] != 0 }
			m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
			m.Spawn("mutator", 1, func(th *Thread) {
				execUntil(th, d, 7)
				th.Settle()
				n = 2
				execUntil(th, 5000, 7)
				th.Store64(words[3], 1)
			})
		}
		lockstep(t, testCfg(), c)
	}
}

// TestParkStopping parks a daemon poller that exits on Stopping: the
// last user thread's exit must settle it before the flag flips.
func TestParkStopping(t *testing.T) {
	for d := uint64(3000); d < 3000+4*17; d++ {
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			p := threeWords(words)
			p.done = func([]uint64) bool { return false }
			p.extra = func(th *Thread) {
				if th.Stopping() {
					th.Pause(3) // a different path once stopping
				}
			}
			m.SpawnDaemon("poller", 0, func(th *Thread) {
				p.words = func() []uint64 { return words[:3] }
				p.done = func([]uint64) bool { return th.Stopping() }
				p.run(th, seen)
			})
			m.Spawn("user", 1, func(th *Thread) { execUntil(th, d, 1+int(d%41)) })
			m.SpawnDaemon("idler", 2, func(th *Thread) {
				for !th.Stopping() {
					th.Exec(10)
				}
			})
		}
		if w := lockstep(t, testCfg(), c); w.Parks == 0 {
			t.Fatalf("delay %d: the daemon never parked", d)
		}
	}
}

// TestParkWallHorizon has the machine wall clock, not the poller's own
// clock, cross the poller's horizon: a round started after the probe
// chain saw that wall takes another path, so the poller must be settled
// before the probe publishes it.
func TestParkWallHorizon(t *testing.T) {
	const h = 40000
	for _, chunk := range []int{9000, 12345, 30000} {
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			var wallSeen uint64
			m.AddProbe(func(wall uint64) { wallSeen = wall })
			p := threeWords(words)
			p.extra = func(th *Thread) {
				if wallSeen >= h {
					th.Pause(13)
				}
			}
			p.horizon = func() uint64 {
				if wallSeen < h {
					return h
				}
				return 0
			}
			m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
			m.Spawn("runner", 1, func(th *Thread) {
				for th.Clock() < 3*h {
					th.Exec(chunk)
				}
				th.Store64(words[3], 1)
			})
		}
		if w := lockstep(t, testCfg(), c); w.Parks == 0 {
			t.Fatalf("chunk %d: the poller never parked", chunk)
		}
		// The wall, not the poller, must be what crossed the horizon.
		settled, wasParked := false, false
		runPark(testCfg(), true, false, c, func(p *Thread) {
			if wasParked && !p.parked && p.clock < h {
				settled = true
			}
			wasParked = p.parked
		})
		if !settled {
			t.Fatalf("chunk %d: the poller was never settled below its horizon", chunk)
		}
	}
}

// TestParkUntil ends a parked wait on its own deadline.
func TestParkUntil(t *testing.T) {
	for until := uint64(5000); until < 5000+17; until++ {
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			p := threeWords(words)
			p.until = until
			m.Spawn("poller", 0, func(th *Thread) {
				p.run(th, seen)
				th.Store64(words[2], th.Clock())
			})
			m.Spawn("idler", 1, func(th *Thread) { th.Exec(20000) })
		}
		if w := lockstep(t, testCfg(), c); w.Parks == 0 {
			t.Fatalf("until %d: the poller never parked", until)
		}
	}
}

// FuzzPark draws round shapes, a writer's timing, whether the writer
// stores to a watched word or only re-marks its class, and the
// scheduler quantum, and requires warp on and off to agree.
func FuzzPark(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(0), uint16(64), uint16(3000), uint8(1), uint16(700), false)
	f.Add(uint8(1), uint8(0), uint8(9), uint16(1), uint16(123), uint8(0), uint16(1), false)
	f.Add(uint8(2), uint8(40), uint8(3), uint16(4096), uint16(9000), uint8(2), uint16(5000), false)
	f.Add(uint8(3), uint8(5), uint8(0), uint16(64), uint16(3000), uint8(1), uint16(700), true)
	f.Fuzz(func(t *testing.T, loads, pause, exec uint8, quantum, delay uint16, word uint8, gap uint16, mark bool) {
		cfg := testCfg()
		cfg.Quantum = uint64(quantum)%4096 + 1
		n := int(loads)%3 + 1
		c := func(m *Machine, words [4]uint64, seen *[][]uint64) {
			p := &poller{
				words: func() []uint64 { return append(words[:n:n], words[3]) },
				done:  func(v []uint64) bool { return v[len(v)-1] != 0 },
				pause: int(pause % 48),
				exec:  int(exec % 24),
			}
			m.Spawn("poller", 0, func(th *Thread) { p.run(th, seen) })
			m.Spawn("writer", 1, func(th *Thread) {
				th.Exec(int(delay) + 1)
				if mark {
					th.MarkRegion(words[int(word)%n], 8, region.Meta)
				} else {
					th.Store64(words[int(word)%n], 1)
				}
				th.Exec(int(gap) + 1)
				th.Store64(words[3], 1)
			})
		}
		lockstep(t, cfg, c)
	})
}
