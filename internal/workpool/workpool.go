// Package workpool is the deterministic parallel-execution substrate of
// Phase 1's real-CPU hot paths — the difference detector's clip pass,
// CMDN grid training, sample featurization and the inference sweeps
// (DisableDiff's, and a streaming close's predictions from feature
// rows) — and of engine.RunSharded's shards. Phase 2 fans out nothing.
//
// Determinism contract: every helper assigns work by item index, collects
// results into index-ordered slots, and reduces in ascending index order.
// A computation that is a pure function of its item index therefore
// produces byte-identical output regardless of the worker count — the
// property the engine's "same Config.Seed ⇒ same Result" guarantee rests
// on. The scheduling (which worker runs which index, in what real-time
// order) is intentionally unobservable.
//
// There is one substrate: ForEach's transient workers, at most Procs of
// them per call, claiming items by index and gone when the call returns.
// There is no resident pool. Every cost is charged to the simulated
// clock, so workers change the wall clock only, and a pool that outlives
// its call saves a goroutine spawn per fan-out while holding goroutines
// for as long as its owner forgets to Close it.
//
// All helpers run the caller's function on the calling goroutine when the
// effective worker count is 1 or the item count is small, so the serial
// path is exactly the naive loop.
package workpool

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Procs resolves a parallelism knob: values ≤ 0 mean "use all cores"
// (GOMAXPROCS); positive values are returned unchanged.
func Procs(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEach runs fn(worker, i) for every i in [0, n), spread over up to
// procs workers. Worker IDs are dense in [0, workers) so callers can give
// each worker private scratch (model clones, buffers); every index is
// processed by exactly one worker. Panics inside fn are captured and
// re-raised on the calling goroutine.
func ForEach(procs, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	p := Procs(procs)
	if p > n {
		p = n
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next int64 = 0
		wg   sync.WaitGroup
		pmu  sync.Mutex
		pval any
	)
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if pval != nil {
		// Re-raise the first worker's original panic value, untouched, so
		// typed values (runtime.Error, fmt-built strings) survive for the
		// caller's recover instead of being flattened into a string.
		panic(pval)
	}
}

// MapWith runs fn for every i in [0, n) and returns the results in
// index order, giving each worker private mutable scratch (model
// clones, buffers): newScratch runs at most once per worker, lazily, on
// that worker's goroutine, and fn receives the worker's own instance.
// The output is identical for every worker count as long as fn's
// result is a pure function of i: the scratch must not influence it,
// only its speed.
func MapWith[S, T any](procs, n int, newScratch func() S, fn func(scratch S, i int) T) []T {
	p := Procs(procs)
	scratch := make([]S, p)
	made := make([]bool, p)
	out := make([]T, n)
	ForEach(p, n, func(worker, i int) {
		if !made[worker] {
			scratch[worker] = newScratch()
			made[worker] = true
		}
		out[i] = fn(scratch[worker], i)
	})
	return out
}

// Stage runs f under the profiler labels layer and stage, so a CPU or
// goroutine profile attributes f's work — and that of the workers its
// fan-outs start, which inherit the labels — to the stage. Stages do not
// nest: the labels are cleared when f returns. Each call costs a few
// small allocations, so stages mark Phase 1's boundaries (and a stream's
// segment close), never a per-query path.
func Stage(layer, stage string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("layer", layer, "stage", stage), func(context.Context) { f() })
}

// Pool is inert: it starts no goroutine, and nothing in the library
// reads one. It remains only because the benchmark driver still builds
// pools and passes them through fields the library ignores.
type Pool struct{}

// NewPool returns an inert Pool; procs is ignored.
func NewPool(procs int) *Pool { return &Pool{} }

// Close releases nothing.
func (p *Pool) Close() {}
