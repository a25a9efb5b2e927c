package gpu

import (
	"testing"

	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/sim"
)

// withEngine runs app with a live engine daemon.
func withEngine(t *testing.T, app func(th *sim.Thread, e *Engine)) {
	m := sim.New(sim.ScaledConfig())
	var e *Engine
	m.SpawnDaemon("gpu-engine", m.Cores()-1, func(th *sim.Thread) {
		for e == nil {
			if th.Stopping() {
				return
			}
			th.Pause(100)
		}
		e.Serve(th)
	})
	m.Spawn("app", 0, func(th *sim.Thread) {
		e = New(th)
		app(th, e)
	})
	m.Run()
}

func TestAllocCopyKernelRoundTrip(t *testing.T) {
	withEngine(t, func(th *sim.Thread, e *Engine) {
		// Host staging buffer with known contents.
		src := th.Mmap(1)
		for i := uint64(0); i < 16; i++ {
			th.Store64(src+i*8, i)
		}
		ta := e.AllocAsync(th, 128)
		e.Wait(th, ta)
		buf := e.Result(th, ta)
		if buf == 0 {
			t.Fatal("device alloc returned 0")
		}
		e.CopyAsync(th, buf, src, 128)
		tk := e.KernelAsync(th, buf, 128, 4)
		e.Wait(th, tk)
		// Kernel computed v*3+1 on every element.
		for i := uint64(0); i < 16; i++ {
			if got := th.Load64(buf + i*8); got != i*3+1 {
				t.Fatalf("element %d = %d, want %d", i, got, i*3+1)
			}
		}
		e.FreeAsync(th, buf)
		e.Sync(th)
		st := e.Stats()
		if st.Allocs != 1 || st.Copies != 1 || st.Kernels != 1 || st.Frees != 1 {
			t.Errorf("stats %+v", st)
		}
	})
}

// TestStreamOrdering: operations complete in queue order, so a copy
// into a buffer allocated by an earlier async alloc is safe without an
// intermediate wait (the CUDA stream contract).
func TestStreamOrdering(t *testing.T) {
	withEngine(t, func(th *sim.Thread, e *Engine) {
		src := th.Mmap(1)
		th.Store64(src, 0xfeed)
		// Queue alloc+copy back-to-back; only wait at the end.
		ta := e.AllocAsync(th, 64)
		// The copy's destination isn't known yet on the app side; wait
		// for the alloc ticket only (still async relative to the rest).
		e.Wait(th, ta)
		buf := e.Result(th, ta)
		e.CopyAsync(th, buf, src, 64)
		e.Sync(th)
		if th.Load64(buf) != 0xfeed {
			t.Error("stream-ordered copy lost data")
		}
	})
}

// TestDeviceHeapReuse: freed device blocks are reused by later allocs.
func TestDeviceHeapReuse(t *testing.T) {
	withEngine(t, func(th *sim.Thread, e *Engine) {
		// 128 allocations of 256 bytes fill exactly four 32-object slabs,
		// so a fresh allocation after the frees can only be a reuse.
		const n = 128
		seen := map[uint64]bool{}
		for i := 0; i < n; i++ {
			ta := e.AllocAsync(th, 256)
			e.Wait(th, ta)
			seen[e.Result(th, ta)] = true
		}
		if len(seen) != n {
			t.Fatalf("duplicate live addresses: %d unique of %d", len(seen), n)
		}
		// Free them all, allocate again: addresses recycle.
		for addr := range seen {
			e.FreeAsync(th, addr)
		}
		e.Sync(th)
		reused := 0
		for i := 0; i < n; i++ {
			ta := e.AllocAsync(th, 256)
			e.Wait(th, ta)
			if seen[e.Result(th, ta)] {
				reused++
			}
		}
		if reused != n {
			t.Errorf("only %d/%d device blocks reused", reused, n)
		}
		// The four slabs came from one span-heap chunk.
		if st := e.Stats(); st.SlabBytes != 512<<mem.PageShift {
			t.Errorf("device slabs mapped %d bytes, want one 512-page chunk", st.SlabBytes)
		}
	})
}

// TestWindowBackpressure: queuing far more ops than the window holds
// must not corrupt descriptors.
func TestWindowBackpressure(t *testing.T) {
	withEngine(t, func(th *sim.Thread, e *Engine) {
		var tickets []Ticket
		for i := 0; i < 50; i++ {
			tickets = append(tickets, e.AllocAsync(th, 64))
		}
		// Free them as results arrive (reading within the window).
		for _, ta := range tickets {
			e.Wait(th, ta)
			e.FreeAsync(th, e.Result(th, ta))
		}
		// Now a long burst exceeding the window.
		for i := 0; i < 300; i++ {
			ta := e.AllocAsync(th, 64)
			e.Wait(th, ta)
			e.FreeAsync(th, e.Result(th, ta))
		}
		e.Sync(th)
		if st := e.Stats(); st.Allocs != 350 || st.Frees != 350 {
			t.Errorf("stats %+v", st)
		}
	})
}
