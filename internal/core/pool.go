package core

import "sync"

// workerPool is a persistent set of goroutines fed contiguous index
// ranges over a channel. ParallelDecomposeTol and ParallelReconstruct keep
// one pool alive across all levels of a transform instead of spawning
// (and joining) a fresh goroutine set per level and per pass — at the
// deeper levels a pass is tens of microseconds, where goroutine startup
// is measurable.
type workerPool struct {
	workers int
	tasks   chan poolTask
	done    sync.WaitGroup // live workers
}

// poolTask is one contiguous range of a phase's index space plus the
// phase body and the barrier the dispatching goroutine waits on.
type poolTask struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// newWorkerPool starts a pool of the given size. workers must be >= 1.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, tasks: make(chan poolTask)}
	for w := 0; w < workers; w++ {
		p.done.Add(1)
		go func() {
			defer p.done.Done()
			for t := range p.tasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return p
}

// Ranges splits [0, n) into one contiguous chunk per worker, hands the
// chunks to the pool, and waits for all of them to finish. With a single
// worker the range runs on the calling goroutine, keeping the
// single-thread path free of scheduling overhead.
func (p *workerPool) Ranges(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.tasks <- poolTask{lo: lo, hi: hi, fn: fn, wg: &wg}
	}
	wg.Wait()
}

// Close shuts the pool down and waits for the workers to exit.
func (p *workerPool) Close() {
	close(p.tasks)
	p.done.Wait()
}
