package ring

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"nextgenmalloc/internal/sim"
)

func withThread(_ testing.TB, fn func(th *sim.Thread)) {
	m := sim.New(sim.DefaultConfig())
	m.Spawn("t", 0, fn)
	m.Run()
}

func TestFIFO(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 8)
		for i := uint64(0); i < 5; i++ {
			if !r.TryPush(th, i, i*10) {
				t.Fatalf("push %d failed", i)
			}
		}
		for i := uint64(0); i < 5; i++ {
			w0, w1, ok := r.TryPop(th)
			if !ok || w0 != i || w1 != i*10 {
				t.Fatalf("pop %d = (%d,%d,%v)", i, w0, w1, ok)
			}
		}
		if _, _, ok := r.TryPop(th); ok {
			t.Error("pop on empty ring succeeded")
		}
	})
}

func TestFullness(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 4)
		for i := uint64(0); i < 4; i++ {
			if !r.TryPush(th, i, 0) {
				t.Fatalf("push %d failed", i)
			}
		}
		if r.TryPush(th, 99, 0) {
			t.Error("push on full ring succeeded")
		}
		r.TryPop(th)
		if !r.TryPush(th, 4, 0) {
			t.Error("push after pop failed")
		}
	})
}

func TestWraparound(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 4)
		for round := uint64(0); round < 40; round++ {
			if !r.TryPush(th, round, round^0xff) {
				t.Fatalf("push %d failed", round)
			}
			w0, w1, ok := r.TryPop(th)
			if !ok || w0 != round || w1 != round^0xff {
				t.Fatalf("round %d: got (%d,%d,%v)", round, w0, w1, ok)
			}
		}
	})
}

// TestQuickModelEquivalence: the ring behaves exactly like a bounded
// FIFO queue for any sequence of pushes and pops.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []bool, vals []uint16) bool {
		ok := true
		withThread(t, func(th *sim.Thread) {
			r := New(th.Mmap(1), 8)
			var model []uint64
			vi := 0
			for _, isPush := range ops {
				if isPush {
					v := uint64(0)
					if vi < len(vals) {
						v = uint64(vals[vi])
						vi++
					}
					pushed := r.TryPush(th, v, v+1)
					if pushed != (len(model) < 8) {
						ok = false
						return
					}
					if pushed {
						model = append(model, v)
					}
				} else {
					w0, _, popped := r.TryPop(th)
					if popped != (len(model) > 0) {
						ok = false
						return
					}
					if popped {
						if w0 != model[0] {
							ok = false
							return
						}
						model = model[1:]
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCrossCore: producer on one core, consumer on another, all values
// arrive in order.
func TestCrossCore(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	page, _ := m.Kernel().Mmap(1)
	prod := New(page, 16)
	cons := New(page, 16) // separate shadow state, same memory
	const n = 2000
	m.Spawn("producer", 0, func(th *sim.Thread) {
		for i := uint64(1); i <= n; i++ {
			prod.Push(th, i, i*3)
		}
	})
	bad := false
	m.Spawn("consumer", 1, func(th *sim.Thread) {
		for want := uint64(1); want <= n; {
			w0, w1, ok := cons.TryPop(th)
			if !ok {
				th.Pause(32)
				continue
			}
			if w0 != want || w1 != want*3 {
				bad = true
				return
			}
			want++
		}
	})
	m.Run()
	if bad {
		t.Error("cross-core ring delivered out-of-order or corrupt data")
	}
}

func TestBadSlotCountPanics(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-power-of-two slots")
			}
		}()
		New(th.Mmap(1), 6)
	})
}

func TestStatsTelemetry(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 4)
		for i := uint64(0); i < 4; i++ {
			if !r.TryPush(th, i, 0) {
				t.Fatalf("push %d failed", i)
			}
		}
		if r.TryPush(th, 99, 0) {
			t.Fatal("push on full ring succeeded")
		}
		r.TryPop(th)
		r.TryPush(th, 4, 0)
		s := r.Stats()
		if s.Pushes != 5 || s.Pops != 1 || s.FullRetries != 1 {
			t.Errorf("stats = %+v, want 5 pushes, 1 pop, 1 full retry", s)
		}
		var occ uint64
		for _, b := range s.Occupancy {
			occ += b
		}
		if occ != s.Pushes {
			t.Errorf("occupancy histogram sums to %d, want %d", occ, s.Pushes)
		}
	})
}

func TestStagePublish(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 8)
		for i := uint64(0); i < 3; i++ {
			if !r.TryStage(th, i, i*10) {
				t.Fatalf("stage %d failed", i)
			}
		}
		if r.Staged() != 3 {
			t.Fatalf("Staged() = %d, want 3", r.Staged())
		}
		// Staged slots are invisible until Publish.
		if _, _, ok := r.TryPop(th); ok {
			t.Fatal("pop saw a staged, unpublished slot")
		}
		r.Publish(th)
		if r.Staged() != 0 {
			t.Fatalf("Staged() after Publish = %d, want 0", r.Staged())
		}
		for i := uint64(0); i < 3; i++ {
			w0, w1, ok := r.TryPop(th)
			if !ok || w0 != i || w1 != i*10 {
				t.Fatalf("pop %d = (%d,%d,%v)", i, w0, w1, ok)
			}
		}
		s := r.Stats()
		if s.Pushes != 3 || s.PushBatches != 1 {
			t.Errorf("stats = %+v, want 3 pushes in 1 batch", s)
		}
		var occ uint64
		for _, b := range s.Occupancy {
			occ += b
		}
		if occ != s.Pushes {
			t.Errorf("occupancy histogram sums to %d, want %d", occ, s.Pushes)
		}
	})
}

func TestTryStageFull(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 4)
		for i := uint64(0); i < 4; i++ {
			if !r.TryStage(th, i, 0) {
				t.Fatalf("stage %d failed", i)
			}
		}
		// Staged slots count against capacity even before Publish.
		if r.TryStage(th, 99, 0) {
			t.Error("stage on a staged-full ring succeeded")
		}
		if r.Stats().FullRetries != 1 {
			t.Errorf("FullRetries = %d, want 1", r.Stats().FullRetries)
		}
		r.Publish(th)
		r.TryPop(th)
		if !r.TryStage(th, 4, 0) {
			t.Error("stage after pop failed")
		}
	})
}

func TestPushPublishesStagedBacklog(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 8)
		r.TryStage(th, 1, 0)
		r.TryStage(th, 2, 0)
		// A plain push publishes the backlog in the same batch and keeps
		// its FIFO position behind it.
		if !r.TryPush(th, 3, 0) {
			t.Fatal("push failed")
		}
		for want := uint64(1); want <= 3; want++ {
			w0, _, ok := r.TryPop(th)
			if !ok || w0 != want {
				t.Fatalf("pop = (%d,%v), want %d", w0, ok, want)
			}
		}
		if s := r.Stats(); s.Pushes != 3 || s.PushBatches != 1 {
			t.Errorf("stats = %+v, want 3 pushes in 1 batch", s)
		}
	})
}

// TestVectoredCheaperThanSingles pins the point of batching: with the
// consumer polling from another core, a line's worth of requests staged
// and published together costs the producer fewer slot-line
// invalidations than the same requests pushed one at a time, because
// the polled line changes hands once per batch instead of once per
// request.
func TestVectoredCheaperThanSingles(t *testing.T) {
	const width, total = sim.LineSize / SlotSize, 96 // the ring never fills: total is a whole number of lines
	cost := func(batched bool) (invalidations uint64) {
		m := sim.New(sim.DefaultConfig())
		page, _ := m.Kernel().Mmap(1)
		r := New(page, 16)
		m.Spawn("producer", 0, func(th *sim.Thread) {
			for n := uint64(0); n < total; n++ {
				th.Pause(200) // application work: the consumer is back to polling before the next request
				r.Stage(th, n, n)
				if !batched || r.Staged() == width {
					r.Publish(th)
				}
			}
			invalidations = th.Counters().Invalidations
		})
		m.Spawn("consumer", 1, func(th *sim.Thread) {
			for popped := 0; popped < total; {
				if _, _, ok := r.TryPop(th); ok {
					popped++
				} else {
					th.Pause(8)
				}
			}
		})
		m.Run()
		return invalidations
	}
	single, vectored := cost(false), cost(true)
	if vectored*2 > single {
		t.Errorf("vectored transfer cost %d producer invalidations, singles %d — batching saved too little", vectored, single)
	}
}

// walkFill assigns a fresh nonzero value to every uint64 leaf of a
// telemetry struct; walkCheck verifies leaf-by-leaf that sum == a + b.
// Together they make aggregation tests fail automatically when a new
// Stats field is added but not wired into Add.
func walkFill(v reflect.Value, next *uint64, mul uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next * mul)
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkFill(v.Index(i), next, mul)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkFill(v.Field(i), next, mul)
		}
	default:
		panic("walkFill: unhandled kind " + v.Kind().String())
	}
}

func walkCheck(t *testing.T, path string, a, b, sum reflect.Value) {
	t.Helper()
	switch a.Kind() {
	case reflect.Uint64:
		if sum.Uint() != a.Uint()+b.Uint() {
			t.Errorf("%s: Add dropped the field (%d + %d gave %d)", path, a.Uint(), b.Uint(), sum.Uint())
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			walkCheck(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), sum.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			walkCheck(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), sum.Field(i))
		}
	default:
		t.Fatalf("%s: unhandled kind %s", path, a.Kind())
	}
}

// TestStatsAddCoversEveryField fails when a field is added to Stats but
// not aggregated by Stats.Add.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	n := uint64(0)
	walkFill(reflect.ValueOf(&a).Elem(), &n, 1)
	n = 0
	walkFill(reflect.ValueOf(&b).Elem(), &n, 1000)
	sum := a
	sum.Add(b)
	walkCheck(t, "Stats", reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum))
}

func TestPushStallCycles(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	var stats Stats
	base := make(chan uint64, 1)
	m.Spawn("producer", 0, func(th *sim.Thread) {
		r := New(th.Mmap(1), 2)
		base <- r.base
		r.TryPush(th, 1, 0)
		r.TryPush(th, 2, 0)
		// Ring full: this Push must spin until the consumer drains.
		r.Push(th, 3, 0)
		stats = r.Stats()
	})
	m.Spawn("consumer", 1, func(th *sim.Thread) {
		b := <-base
		r := New(b, 2)
		th.Pause(5000)
		for popped := 0; popped < 3; {
			if _, _, ok := r.TryPop(th); ok {
				popped++
			} else {
				th.Pause(50)
			}
		}
	})
	m.Run()
	if stats.StallCycles == 0 {
		t.Error("full-ring Push recorded no stall cycles")
	}
	if stats.FullRetries == 0 {
		t.Error("full-ring Push recorded no full retries")
	}
}

// TestDropHookSuppressesDoorbell: a dropped publication lands with the
// stale lap tag, leaving the consumer blind to the new slots until
// Republish rewrites the true one.
func TestDropHookSuppressesDoorbell(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		r := New(th.Mmap(1), 8)
		drop := true
		r.SetDropHook(func() bool { return drop })
		if !r.TryPush(th, 1, 10) {
			t.Fatal("push failed")
		}
		if !r.Dropped() {
			t.Error("Dropped() false after a suppressed publication")
		}
		if _, _, ok := r.TryPop(th); ok {
			t.Fatal("consumer saw a slot whose doorbell was dropped")
		}
		r.Republish(th)
		if r.Dropped() {
			t.Error("Dropped() still true after Republish")
		}
		w0, w1, ok := r.TryPop(th)
		if !ok || w0 != 1 || w1 != 10 {
			t.Fatalf("pop after Republish = (%d,%d,%v), want (1,10,true)", w0, w1, ok)
		}
		// A surviving publication also catches up the lost ones.
		if !r.TryPush(th, 2, 20) {
			t.Fatal("push 2 failed")
		}
		drop = false
		if !r.TryPush(th, 3, 30) {
			t.Fatal("push 3 failed")
		}
		for want := uint64(2); want <= 3; want++ {
			w0, _, ok := r.TryPop(th)
			if !ok || w0 != want {
				t.Fatalf("pop = (%d,%v), want (%d,true)", w0, ok, want)
			}
		}
	})
}

// TestDropHookCountsUnchanged: drops perturb delivery, not accounting —
// Pushes still counts every published slot, so the harness liveness
// invariant (pushes == pops after a drain with Republish) can rely on it.
func TestDropHookStatsStable(t *testing.T) {
	withThread(t, func(th *sim.Thread) {
		clean := New(th.Mmap(1), 8)
		faulty := New(th.Mmap(1), 8)
		i := 0
		faulty.SetDropHook(func() bool { i++; return i%2 == 0 })
		for k := uint64(0); k < 6; k++ {
			clean.TryPush(th, k, k)
			faulty.TryPush(th, k, k)
		}
		faulty.Republish(th)
		for {
			if _, _, ok := clean.TryPop(th); !ok {
				break
			}
		}
		for {
			if _, _, ok := faulty.TryPop(th); !ok {
				break
			}
		}
		cs, fs := clean.Stats(), faulty.Stats()
		if cs.Pushes != fs.Pushes || cs.Pops != fs.Pops {
			t.Errorf("drop hook changed push/pop accounting: clean %+v faulty %+v", cs, fs)
		}
		if fs.Pushes != fs.Pops {
			t.Errorf("faulty ring lost slots: %d pushed, %d popped", fs.Pushes, fs.Pops)
		}
	})
}
