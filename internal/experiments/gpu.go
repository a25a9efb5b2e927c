package experiments

import (
	"fmt"

	"nextgenmalloc/internal/gpu"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/sim"
)

// runGPUPipeline executes a batched offload pipeline: per batch the CPU
// prepares a staging buffer, then the device side allocates a buffer,
// copies the staging data in, runs a kernel, copies the result back,
// and frees the buffer. In sync mode the CPU waits after every device
// operation (the cudaMalloc/cudaMemcpy default); in async mode all five
// operations ride the stream and the CPU only throttles on staging-
// buffer reuse (double buffering) — allocation latency disappears into
// the copy, the paper's §3.3.1 proposal. The machine is built from cfg.
func runGPUPipeline(cfg sim.Config, async bool, batches int, bufBytes uint64) (cpuCycles uint64, st gpu.Stats) {
	m := sim.New(cfg)
	var e *gpu.Engine
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
		e = gpu.New(th)
		stagingPages := int((bufBytes + 4095) >> 12)
		staging := [2]uint64{th.Mmap(stagingPages), th.Mmap(stagingPages)}
		result := th.Mmap(stagingPages)
		var lastUse [2]gpu.Ticket
		haveUse := [2]bool{}

		start := th.Clock()
		for b := 0; b < batches; b++ {
			s := b % 2
			// Before rewriting a staging buffer, its previous H2D copy
			// must have completed (double buffering).
			if haveUse[s] {
				e.Wait(th, lastUse[s])
			}
			// CPU-side preparation (the work async mode overlaps).
			th.BlockWrite(staging[s], int(bufBytes), uint64(b))
			th.Exec(int(bufBytes / 4))

			ta := e.AllocAsync(th, bufBytes)
			if async {
				// Ticket-indirect ops: allocation rides the stream; the
				// CPU never learns the buffer address at all.
				tc := e.CopyInAsync(th, ta, staging[s], bufBytes)
				lastUse[s], haveUse[s] = tc, true
				e.KernelTAsync(th, ta, bufBytes, 2)
				e.CopyOutAsync(th, result, ta, bufBytes)
				e.FreeTAsync(th, ta)
				continue
			}
			// Synchronous style: wait for the allocation, then for every
			// stage (cudaMalloc/cudaMemcpy defaults).
			e.Wait(th, ta)
			buf := e.Result(th, ta)
			tc := e.CopyAsync(th, buf, staging[s], bufBytes)
			lastUse[s], haveUse[s] = tc, true
			e.KernelAsync(th, buf, bufBytes, 2)
			e.CopyAsync(th, result, buf, bufBytes)
			tf := e.FreeAsync(th, buf)
			e.Wait(th, tf)
			th.BlockRead(result, int(bufBytes)) // consume result
		}
		e.Sync(th)
		cpuCycles = th.Clock() - start
		st = e.Stats()
	})
	m.Run()
	return cpuCycles, st
}

// AblateGPU reproduces the §3.3.1 extension: asynchronous device
// allocation folded into the copy stream versus synchronous
// allocate/copy/launch.
func AblateGPU(e Env) Outcome {
	batches := e.Scale.XalancOps / 1000
	if batches < 40 {
		batches = 40
	}
	const bufBytes = 16 << 10
	type pipeResult struct {
		cycles uint64
		stats  gpu.Stats
	}
	both := runAll(2, func(i int) pipeResult {
		c, st := runGPUPipeline(*e.machine(), i == 1, batches, bufBytes)
		return pipeResult{c, st}
	})
	syncCyc, syncStats := both[0].cycles, both[0].stats
	asyncCyc, asyncStats := both[1].cycles, both[1].stats

	header := []string{"mode", "CPU cycles", "cycles/batch", "bytes copied"}
	rows := [][]string{
		{"synchronous", report.Sci(float64(syncCyc)),
			fmt.Sprintf("%d", syncCyc/uint64(batches)), report.Sci(float64(syncStats.BytesCopied))},
		{"stream-async", report.Sci(float64(asyncCyc)),
			fmt.Sprintf("%d", asyncCyc/uint64(batches)), report.Sci(float64(asyncStats.BytesCopied))},
	}
	text := report.Table("Ablation: GPU allocation in the async stream (§3.3.1)", header, rows)
	text += fmt.Sprintf("\nspeedup from async allocation+copy: %.2fx over %d batches of %d KiB\n",
		float64(syncCyc)/float64(asyncCyc), batches, bufBytes>>10)
	return Outcome{ID: "ablate-gpu", Text: text}
}
