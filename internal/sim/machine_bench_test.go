package sim

import (
	"fmt"
	"testing"
)

// BenchmarkMachineRun measures the scheduler itself — heap maintenance,
// lease hand-offs, and (for the idle topology) the time-warp fast path —
// on two topologies:
//
//   - busy: four threads doing wall-to-wall memory work, no wait loops.
//     Warp has nothing to skip here; this pins the scheduler's overhead
//     on compute-bound runs.
//   - idle: a producer computing in long chunks plus a waiter spinning
//     on a flag via WarpLoop. Nearly all of the waiter's simulated time
//     is an idle window bounded by the producer's lease — the shape the
//     cycle-skipping engine exists for; warp=true vs warp=false is the
//     before/after of the time warp.
//   - fleet: four pollers on their own cores, each spinning on its own
//     flag via WarpLoop, beside a producer that computes in short chunks
//     and then sets every flag — an idle allocator fleet in miniature.
//     Nearly every lease goes to a parked poller, so with warp on the
//     ns-per-parked-lease metric is the cost of serving one.
func BenchmarkMachineRun(b *testing.B) {
	for _, topo := range []string{"busy", "idle", "fleet"} {
		for _, warp := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/warp=%v", topo, warp), func(b *testing.B) {
				b.ReportAllocs()
				var leases uint64
				for i := 0; i < b.N; i++ {
					leases += benchRun(topo, warp).ParkedLeases
				}
				if leases > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(leases), "ns/parked-lease")
				}
			})
		}
	}
}

func benchRun(topo string, warp bool) WarpStats {
	cfg := DefaultConfig()
	cfg.Cores = 5
	cfg.Warp = warp
	m := New(cfg)
	switch topo {
	case "busy":
		for c := 0; c < 4; c++ {
			base, _ := m.Kernel().Mmap(4)
			m.Spawn(fmt.Sprintf("busy%d", c), c, func(t *Thread) {
				for i := 0; i < 4000; i++ {
					t.Store64(base+uint64(i%512)*8, uint64(i))
					t.Load64(base + uint64((i+7)%512)*8)
				}
			})
		}
	case "idle":
		flag, _ := m.Kernel().Mmap(1)
		m.Spawn("producer", 0, func(t *Thread) {
			for i := 0; i < 80; i++ {
				t.Exec(5000)
			}
			t.AtomicStore64(flag, 1)
		})
		m.Spawn("waiter", 1, func(t *Thread) {
			t.WarpLoop(WaitSpec{
				Round: func() bool {
					if t.AtomicLoad64(flag) == 1 {
						return true
					}
					t.Pause(8)
					return false
				},
			})
		})
	case "fleet":
		flags, _ := m.Kernel().Mmap(1)
		m.Spawn("producer", 0, func(t *Thread) {
			for i := 0; i < 20000; i++ {
				t.Exec(200)
			}
			for p := uint64(0); p < 4; p++ {
				t.Store64(flags+p*LineSize, 1)
			}
		})
		for p := 0; p < 4; p++ {
			flag := flags + uint64(p)*LineSize
			m.Spawn(fmt.Sprintf("poller%d", p), p+1, func(t *Thread) {
				t.WarpLoop(WaitSpec{
					Round: func() bool {
						if t.Load64(flag) == 1 {
							return true
						}
						t.Pause(8)
						return false
					},
				})
			})
		}
	default:
		panic("unknown topology " + topo)
	}
	m.Run()
	return m.WarpStats()
}
