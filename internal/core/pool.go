package core

import (
	"sync"
	"sync/atomic"
)

// workerPool bounds the tuning pipeline's evaluation concurrency at one
// session-wide degree of parallelism (Options.Parallelism). Independent
// what-if evaluations — a greedy step's candidate frontier, the seed
// enumeration's subsets, the per-event terms of a workload costing — are
// fanned out over it; everything order-sensitive (best-pick reduction,
// float-cost summation) happens afterwards on the calling goroutine, in
// index order, which is what keeps parallel and sequential runs
// byte-identical.
type workerPool struct {
	// slots holds size-1 helper tokens. Helpers are recruited non-blockingly:
	// a nested each (the greedy seed recursing while its parent level still
	// holds workers) simply finds no free token and runs inline, so the
	// session never exceeds size goroutines and never deadlocks on itself.
	slots chan struct{}
	size  int
}

// newWorkerPool creates a pool of the given total parallelism (minimum 1:
// the calling goroutine always participates).
func newWorkerPool(parallelism int) *workerPool {
	if parallelism < 1 {
		parallelism = 1
	}
	return &workerPool{slots: make(chan struct{}, parallelism-1), size: parallelism}
}

// each runs fn(i) for every i in [0, n), distributing the indices over the
// calling goroutine plus as many helper goroutines as are free (at most
// size-1, at most n-1). It returns once every index has run, reporting how
// many goroutines participated (the greedy-step span's workers attribute
// and the pool-utilization histogram). fn must write its result into a
// caller-provided slot at index i; each itself imposes no result ordering.
func (p *workerPool) each(n int, fn func(i int)) int {
	return p.eachWorker(n, func(_, i int) { fn(i) })
}

// eachWorker is each with fn also told which participating goroutine runs
// index i: w is 0 for the calling goroutine and counts the helpers from 1,
// below size, so fn may use per-worker scratch indexed by w without a lock.
func (p *workerPool) eachWorker(n int, fn func(w, i int)) int {
	if n <= 0 {
		return 0
	}
	if p.size <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return 1
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	workers := 1
recruit:
	for workers < n && workers < p.size {
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			w := workers
			workers++
			go func() {
				defer func() {
					<-p.slots
					wg.Done()
				}()
				work(w)
			}()
		default:
			// No free helper token: another level of the pipeline holds the
			// workers (a nested each). Run with what we have.
			break recruit
		}
	}
	work(0)
	wg.Wait()
	return workers
}
