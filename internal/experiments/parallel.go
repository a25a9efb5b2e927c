package experiments

import (
	"runtime"
	"sync"
	"time"
)

// The fan-out machinery below runs independent simulated machines on
// separate host cores. Every harness.Run builds its own machine,
// allocator, and workload from scratch, and a machine is bit-
// deterministic in isolation, so running N of them concurrently
// produces exactly the results of running them back to back — only the
// wall time changes. One global semaphore bounds the number of live
// machines across all experiments, including when RunSuite fans out
// whole experiments on top of the per-run fan-out here.
var (
	parMu       sync.Mutex
	parallelism = runtime.GOMAXPROCS(0)
	machineSem  chan struct{}
)

// SetParallelism bounds how many simulated machines may run at once
// (clamped to at least 1). The default is GOMAXPROCS. It must not be
// called while experiments are running.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parMu.Lock()
	parallelism = n
	machineSem = nil // re-sized lazily by acquireMachine
	parMu.Unlock()
}

// Parallelism reports the current fan-out bound.
func Parallelism() int {
	parMu.Lock()
	defer parMu.Unlock()
	return parallelism
}

func acquireMachine() chan struct{} {
	parMu.Lock()
	if machineSem == nil {
		machineSem = make(chan struct{}, parallelism)
	}
	sem := machineSem
	parMu.Unlock()
	sem <- struct{}{}
	return sem
}

// runAll evaluates n independent jobs, each typically one harness.Run,
// with at most Parallelism() in flight, and returns their results in
// job order. With a bound of 1 it degrades to a plain serial loop on
// the calling goroutine.
func runAll[T any](n int, job func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if Parallelism() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			out[i] = job(i)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sem := acquireMachine()
			defer func() { <-sem }()
			out[i] = job(i)
		}(i)
	}
	wg.Wait()
	return out
}

// RunSuite runs the selected experiments under e and returns their
// outcomes in selection order: back to back at a bound of 1, otherwise
// each on its own goroutine at once. Not through runAll: an experiment
// holding a semaphore slot while its own runs wait for one deadlocks at
// a bound of 2. done, if non-nil, is called on the calling goroutine in
// completion order with each experiment's index, outcome and wall time.
func RunSuite(sel []Experiment, e Env, done func(i int, out Outcome, elapsed time.Duration)) []Outcome {
	outcomes := make([]Outcome, len(sel))
	elapsed := make([]time.Duration, len(sel))
	finished := make(chan int, len(sel)) // one send per experiment, so a serial run never blocks
	run := func(i int) {
		start := time.Now()
		outcomes[i] = sel[i].Run(e)
		elapsed[i] = time.Since(start)
		finished <- i
	}
	if Parallelism() > 1 {
		for i := range sel {
			go run(i)
		}
	}
	for i := range sel {
		if Parallelism() == 1 {
			run(i)
		}
		if j := <-finished; done != nil {
			done(j, outcomes[j], elapsed[j])
		}
	}
	return outcomes
}
