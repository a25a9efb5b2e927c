package mimalloc

import (
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/alloctest"
	"nextgenmalloc/internal/sim"
)

func TestConformance(t *testing.T) {
	alloctest.Run(t, alloctest.Options{
		Factory: func(th *sim.Thread, m *sim.Machine) alloc.Allocator {
			return New(th)
		},
	})
}

// TestLocalFreeSharding: owner frees go to local_free and are only
// consumed after the page's free list drains (the sharded design).
func TestLocalFreeSharding(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		a := New(th)
		p := a.Malloc(th, 32)
		rec := a.pages.Get(th, p)
		a.Free(th, p)
		if got := th.Load64(rec + pgLocalFree); got != p {
			t.Errorf("local free did not land on local_free: %#x", got)
		}
		if used := th.Load64(rec + pgUsed); used != 0 {
			t.Errorf("used = %d after free", used)
		}
	})
	m.Run()
}

// TestThreadFreeMPSC: a cross-thread free lands on the owner page's
// thread_free list via CAS and is drained by the owner's generic path.
func TestThreadFreeMPSC(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	ready, _ := m.Kernel().Mmap(1)
	shared, _ := m.Kernel().Mmap(1)
	var a *Allocator
	m.Spawn("owner", 0, func(th *sim.Thread) {
		a = New(th)
		p := a.Malloc(th, 32)
		th.Store64(shared, p)
		th.AtomicStore64(ready, 1)
		// Wait until the remote free arrives, then drain it.
		rec := a.pages.Get(th, p)
		for th.AtomicLoad64(rec+pgThreadFree) == 0 {
			th.Pause(100)
		}
		if got := a.collect(th, rec); got != p {
			t.Errorf("collect returned %#x, want %#x", got, p)
		}
		if used := th.Load64(rec + pgUsed); used != 0 {
			t.Errorf("used = %d after drain", used)
		}
	})
	m.Spawn("remote", 1, func(th *sim.Thread) {
		for th.Load64(ready) == 0 {
			th.Pause(100)
		}
		a.Free(th, th.Load64(shared))
	})
	m.Run()
}

// TestLazyExtend: a fresh page links only a bounded chunk of its
// capacity up front.
func TestLazyExtend(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		a := New(th)
		p := a.Malloc(th, 16)
		rec := a.pages.Get(th, p)
		carved := th.Load64(rec + pgCarved)
		capacity := th.Load64(rec + pgCapacity)
		if carved > extendChunk {
			t.Errorf("carved %d blocks up front; want <= %d", carved, extendChunk)
		}
		if capacity <= carved {
			t.Errorf("capacity %d should exceed the first extension %d", capacity, carved)
		}
	})
	m.Run()
}

func TestBadFreeFaults(t *testing.T) {
	alloctest.RunBadFree(t, alloctest.Options{
		Factory: func(th *sim.Thread, m *sim.Machine) alloc.Allocator {
			return New(th)
		},
	})
}
