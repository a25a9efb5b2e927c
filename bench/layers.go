package main

import (
	"sort"
	"time"
)

// microBench times one layer's public functions directly on the host.
// run performs n calls and returns the time they took, set-up excluded.
type microBench struct {
	name  string
	unit  string // "ns" per call or "ms" per call
	moves string
	n     int
	run   func(n int) time.Duration
}

const microReps = 5

// inThread runs body on the only thread of a fresh one-core machine with
// npages mapped, as internal/sim's own benchmarks do.
func inThread(npages int, body func(t *Thread, base uint64)) {
	m := newMachine(1)
	base, _ := m.Kernel().Mmap(npages)
	m.Spawn("bench", 0, func(t *Thread) { body(t, base) })
	m.Run()
}

// machineRun mirrors internal/sim's BenchmarkMachineRun topologies: four
// threads of wall-to-wall memory work (scheduler overhead, nothing to
// warp), or a producer computing in long chunks while a waiter spins on a
// flag through WarpLoop (the shape the time warp exists for).
func machineRun(idle bool) {
	if !idle {
		m := newMachine(4)
		for c := 0; c < 4; c++ {
			base, _ := m.Kernel().Mmap(4)
			m.Spawn("busy", c, func(t *Thread) {
				for i := 0; i < 4000; i++ {
					t.Store64(base+uint64(i%512)*8, uint64(i))
					t.Load64(base + uint64((i+7)%512)*8)
				}
			})
		}
		m.Run()
		return
	}
	m := newMachine(2)
	flag, _ := m.Kernel().Mmap(1)
	m.Spawn("producer", 0, func(t *Thread) {
		for i := 0; i < 80; i++ {
			t.Exec(5000)
		}
		t.AtomicStore64(flag, 1)
	})
	m.Spawn("waiter", 1, func(t *Thread) {
		addrs := []uint64{flag}
		t.WarpLoop(WaitSpec{
			Round: func() bool {
				if t.AtomicLoad64(flag) == 1 {
					return true
				}
				t.Pause(8)
				return false
			},
			Addrs: func() []uint64 { return addrs },
		})
	})
	m.Run()
}

var sink uint64

var microBenches = []microBench{
	{name: "ring.host_ns_push_pop", unit: "ns", moves: mvHost + " on xalanc_offload, xmalloc_fleet", n: 200000,
		run: func(n int) (d time.Duration) {
			inThread(ringPages(256), func(t *Thread, base uint64) {
				r := newRing(base, 256)
				t0 := time.Now()
				for i := 0; i < n; i++ {
					r.TryPush(t, uint64(i), uint64(i))
					r.TryPop(t)
				}
				d = time.Since(t0)
			})
			return d
		}},
	{name: "cache.host_ns_access_l1hit", unit: "ns", moves: mvHost + " on xalanc_classic first", n: 2000000,
		run: func(n int) time.Duration {
			s := newCacheSystem(8 << 20)
			s.Access(0, 0x1000, false)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += s.Access(0, 0x1000, false)
			}
			return time.Since(t0)
		}},
	{name: "cache.host_ns_access_stream", unit: "ns", moves: mvHost + " on xalanc_classic first", n: 200000,
		run: func(n int) time.Duration {
			s := newCacheSystem(1 << 20)
			lines := uint64(4<<20) >> lineShift // four times the LLC: the full miss path
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += s.Access(0, (uint64(i)%lines)<<lineShift, i&1 == 0)
			}
			return time.Since(t0)
		}},
	{name: "tlb.host_ns_lookup", unit: "ns", moves: mvHost + " on xalanc_classic first", n: 2000000,
		run: func(n int) time.Duration {
			tl := newTLB()
			const pages = 32 // L1-resident: the set probe, no walks
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += tl.Access(uint64(i%pages)<<pageShift, false, pageShift)
			}
			return time.Since(t0)
		}},
	{name: "mem.host_ns_load64", unit: "ns", moves: mvHost + " on xalanc_classic first", n: 2000000,
		run: func(n int) time.Duration {
			p := newPhysical()
			span := uint64(64) << pageShift
			var off uint64
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += p.Load(1<<pageShift+off, 8)
				off = (off + 64) % span
			}
			return time.Since(t0)
		}},
	{name: "mem.host_ns_store64", unit: "ns", moves: mvHost + " on xalanc_classic first", n: 2000000,
		run: func(n int) time.Duration {
			p := newPhysical()
			span := uint64(64) << pageShift
			var off uint64
			t0 := time.Now()
			for i := 0; i < n; i++ {
				p.Store(1<<pageShift+off, 8, uint64(i))
				off = (off + 64) % span
			}
			return time.Since(t0)
		}},
	{name: "sim.host_ns_thread_load64", unit: "ns", moves: mvHost + " on xalanc_classic", n: 500000,
		run: func(n int) (d time.Duration) {
			const pages = 64
			inThread(pages, func(t *Thread, base uint64) {
				span := uint64(pages) << pageShift
				var off uint64
				t0 := time.Now()
				for i := 0; i < n; i++ {
					sink += t.Load64(base + off)
					off = (off + 64) % span
				}
				d = time.Since(t0)
			})
			return d
		}},
	{name: "sim.host_ns_thread_block_write", unit: "ns", moves: mvHost + " on xalanc_classic", n: 100000,
		run: func(n int) (d time.Duration) {
			inThread(4, func(t *Thread, base uint64) {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					t.BlockWrite(base, 256, uint64(i))
				}
				d = time.Since(t0)
			})
			return d
		}},
	{name: "sim.host_ms_machine_run_busy", unit: "ms", moves: mvHost + " on xmalloc_fleet, service_failover", n: 50,
		run: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				machineRun(false)
			}
			return time.Since(t0)
		}},
	{name: "sim.host_ms_machine_run_idle", unit: "ms", moves: mvHost + " on xmalloc_fleet, service_failover", n: 200,
		run: func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				machineRun(true)
			}
			return time.Since(t0)
		}},
}

// runMicro times every microbenchmark microReps times and keeps the
// median per-call cost.
func runMicro(sc scale) map[string]float64 {
	out := map[string]float64{}
	for _, b := range microBenches {
		n := max(1, b.n/sc.microDivisor)
		per := make([]float64, microReps)
		for i := range per {
			per[i] = float64(b.run(n).Nanoseconds()) / float64(n)
		}
		sort.Float64s(per)
		v := per[microReps/2]
		if b.unit == "ms" {
			v /= 1e6
		}
		out[b.name] = v
	}
	return out
}

func microMetrics() []metricDef {
	var defs []metricDef
	for _, b := range microBenches {
		defs = append(defs, metricDef{name: b.name, unit: b.unit, host: true, moves: b.moves,
			value: func(l *ledger) float64 { return l.micro[b.name] }})
	}
	return defs
}
