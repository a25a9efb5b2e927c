package sim

import "testing"

// TestAddProbeOrder pins the chaining contract: probes fire in
// installation order, every lease, whether installed via SetProbe or
// chained with AddProbe.
func TestAddProbeOrder(t *testing.T) {
	m := New(testCfg())
	m.Spawn("a", 0, func(th *Thread) { th.Exec(500) })
	m.Spawn("b", 1, func(th *Thread) { th.Exec(500) })

	var order []int
	m.SetProbe(func(wall uint64) { order = append(order, 0) })
	m.AddProbe(func(wall uint64) { order = append(order, 1) })
	m.AddProbe(func(wall uint64) { order = append(order, 2) })
	m.Run()

	if len(order) == 0 || len(order)%3 != 0 {
		t.Fatalf("probe fired %d times, want a positive multiple of 3", len(order))
	}
	for i, got := range order {
		if got != i%3 {
			t.Fatalf("firing %d came from probe %d, want %d (order %v...)",
				i, got, i%3, order[:i+1])
		}
	}
}

// TestAddProbeWithoutSetProbe pins that AddProbe on a bare machine
// installs rather than panics or drops.
func TestAddProbeWithoutSetProbe(t *testing.T) {
	m := New(testCfg())
	m.Spawn("t", 0, func(th *Thread) { th.Exec(100) })
	fired := 0
	m.AddProbe(func(wall uint64) { fired++ })
	m.Run()
	if fired == 0 {
		t.Fatal("AddProbe as the first installer never fired")
	}
}

// TestProbeInstallAfterRunPanics pins that both installers reject a
// machine that has started: late installation would silently miss
// leases, so it must fail loudly and consistently for both entry
// points.
func TestProbeInstallAfterRunPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Run did not panic", name)
			}
		}()
		fn()
	}
	m := New(testCfg())
	m.Spawn("t", 0, func(th *Thread) { th.Exec(10) })
	m.Run()
	mustPanic("SetProbe", func() { m.SetProbe(func(uint64) {}) })
	mustPanic("AddProbe", func() { m.AddProbe(func(uint64) {}) })
}

// TestProbeCadenceSurvivesWarp pins the documented warp interaction:
// a parked thread's leases are still granted one by one, so probes fire
// after the same leases and the observed wall sequence is bit-identical
// with the time warp on and off — even when a thread spends most of the
// run parked in a wait.
func TestProbeCadenceSurvivesWarp(t *testing.T) {
	// The producer computes 20000 cycles in one op (the waiter parks
	// inside one long lease) or in 400 short ones (the waiter holds
	// hundreds of leases parked).
	for _, chunks := range []int{1, 400} {
		walls := func(warp bool) []uint64 {
			cfg := testCfg()
			cfg.Warp = warp
			m := New(cfg)
			flag, _ := m.Kernel().Mmap(1)
			m.Spawn("producer", 0, func(th *Thread) {
				for i := 0; i < chunks; i++ {
					th.Exec(20000 / chunks)
				}
				th.AtomicStore64(flag, 1)
			})
			m.Spawn("waiter", 1, func(th *Thread) {
				th.WarpLoop(WaitSpec{
					Round: func() bool {
						if th.AtomicLoad64(flag) == 1 {
							return true
						}
						th.Pause(8)
						return false
					},
				})
			})
			var seq []uint64
			m.AddProbe(func(wall uint64) { seq = append(seq, wall) })
			m.Run()
			if w := m.WarpStats(); warp && (w.Windows == 0 || w.Parks == 0 || w.ParkedLeases < uint64(chunks)/4) {
				t.Fatalf("%d chunks: the waiter's spin did not spend the run parked: %+v", chunks, w)
			}
			return seq
		}

		off := walls(false)
		on := walls(true)
		if len(off) != len(on) {
			t.Fatalf("%d chunks: probe firing count differs: off=%d on=%d", chunks, len(off), len(on))
		}
		for i := range off {
			if off[i] != on[i] {
				t.Fatalf("%d chunks: probe firing %d saw wall %d with warp, %d without", chunks, i, on[i], off[i])
			}
		}
	}
}
