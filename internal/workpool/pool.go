package workpool

import (
	"sync"
	"sync/atomic"
)

// Pool is a resident worker pool: its goroutines are spawned once and
// reused for every batch, so a caller that fans out repeatedly (the
// Phase 1 stages of one ingest, the window aggregations of a coalesced
// group) pays no per-batch goroutine spawn, WaitGroup or channel
// construction — dispatching a batch allocates nothing.
//
// A Pool runs one batch at a time (ForEach serializes callers), and it
// honours the package determinism contract exactly as the transient
// helpers do: items are claimed by atomic index, so any computation
// that is a pure function of its item index yields byte-identical
// output whether it ran on a Pool, on transient workers, or serially.
//
// Close releases the goroutines. A Pool must not be used after Close.
type Pool struct {
	workers int
	work    chan struct{} // one token per participating worker per batch
	done    chan struct{} // signalled by the last worker of a batch

	mu sync.Mutex // serializes ForEach callers

	// Per-batch state, written by ForEach before tokens are issued and
	// read by workers only between token receipt and completion.
	fn     func(worker, i int)
	n      int
	next   atomic.Int64
	active atomic.Int64

	pmu  sync.Mutex
	pval any
}

// NewPool starts a resident pool of Procs(procs) workers.
func NewPool(procs int) *Pool {
	p := &Pool{workers: Procs(procs)}
	p.work = make(chan struct{}, p.workers)
	p.done = make(chan struct{}, 1)
	for w := 0; w < p.workers; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the resident worker count.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker(id int) {
	for range p.work {
		p.runSlice(id)
		if p.active.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// runSlice drains item indices until the batch is exhausted, capturing
// the first panic for re-raise on the dispatching goroutine (same
// contract as the transient ForEach).
func (p *Pool) runSlice(worker int) {
	defer func() {
		if r := recover(); r != nil {
			p.pmu.Lock()
			if p.pval == nil {
				p.pval = r
			}
			p.pmu.Unlock()
		}
	}()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.fn(worker, i)
	}
}

// ForEach runs fn(worker, i) for every i in [0, n) on the resident
// workers. Worker IDs are in [0, Workers()); every index is processed
// by exactly one worker. Small batches (n == 1) and single-worker
// pools run on the calling goroutine, so the serial path is exactly
// the naive loop. Panics inside fn are re-raised here, untouched.
func (p *Pool) ForEach(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.active.Store(int64(w))
	p.pval = nil
	for i := 0; i < w; i++ {
		p.work <- struct{}{}
	}
	<-p.done
	p.fn = nil
	p.pmu.Lock()
	pval := p.pval
	p.pmu.Unlock()
	if pval != nil {
		panic(pval)
	}
}

// Close releases the resident goroutines. Concurrent or subsequent
// ForEach calls are invalid.
func (p *Pool) Close() {
	close(p.work)
}

// ForEachOn runs the batch on pool when one is provided, else on
// transient workers bounded by procs — the bridge that lets packages
// accept an optional resident pool (diffdet, windows, the Phase 2
// selector) while keeping their standalone call sites unchanged.
func ForEachOn(pool *Pool, procs, n int, fn func(worker, i int)) {
	if pool != nil {
		pool.ForEach(n, fn)
		return
	}
	ForEach(procs, n, fn)
}

// MapOn is Map on an optional resident pool: results are collected in
// index order, identical for every worker count and either substrate.
func MapOn[T any](pool *Pool, procs, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	ForEachOn(pool, procs, n, func(worker, i int) {
		out[i] = fn(worker, i)
	})
	return out
}

// MapWithOn is MapWith on an optional resident pool: newScratch runs
// at most once per worker per call, and fn receives that worker's own
// scratch instance. Scratch must not influence results, only speed.
func MapWithOn[S, T any](pool *Pool, procs, n int, newScratch func() S, fn func(scratch S, i int) T) []T {
	if pool == nil {
		return MapWith(procs, n, newScratch, fn)
	}
	scratch := make([]S, pool.Workers())
	made := make([]bool, pool.Workers())
	out := make([]T, n)
	pool.ForEach(n, func(worker, i int) {
		if !made[worker] {
			scratch[worker] = newScratch()
			made[worker] = true
		}
		out[i] = fn(scratch[worker], i)
	})
	return out
}
