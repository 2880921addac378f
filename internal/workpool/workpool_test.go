package workpool

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcs(t *testing.T) {
	if got := Procs(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Procs(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Procs(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Procs(-3) = %d", got)
	}
	if got := Procs(5); got != 5 {
		t.Fatalf("Procs(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int64, n)
		ForEach(procs, n, func(_, i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("procs=%d: index %d processed %d times", procs, i, c)
			}
		}
	}
}

func TestForEachWorkerIDsDense(t *testing.T) {
	const n = 200
	var maxWorker int64 = -1
	ForEach(4, n, func(w, _ int) {
		for {
			cur := atomic.LoadInt64(&maxWorker)
			if int64(w) <= cur || atomic.CompareAndSwapInt64(&maxWorker, cur, int64(w)) {
				break
			}
		}
		if w < 0 || w >= 4 {
			t.Errorf("worker id %d out of [0,4)", w)
		}
	})
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(4, 0, func(_, _ int) { called = true })
	ForEach(4, -5, func(_, _ int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestMapOrdered(t *testing.T) {
	for _, procs := range []int{1, 3, 16} {
		got := MapWith(procs, 500, func() struct{} { return struct{}{} }, func(_ struct{}, i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: out[%d] = %d", procs, i, v)
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	ForEach(4, 100, func(_, i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestForEachSerialPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("serial panic not propagated")
		}
	}()
	ForEach(1, 3, func(_, i int) {
		if i == 1 {
			panic("boom")
		}
	})
}

// TestMapWithScratchPerWorker: newScratch runs at most once per worker,
// no scratch instance is ever in use on two goroutines at once (the
// busy flag; under -race, also the plain counter), and results come
// back in index order.
func TestMapWithScratchPerWorker(t *testing.T) {
	type scratch struct {
		busy atomic.Bool
		used int // plain field: a shared instance is a data race
	}
	for _, procs := range []int{1, 4, 16} {
		const n = 300
		var made atomic.Int64
		var all []*scratch
		var mu sync.Mutex
		out := MapWith(procs, n, func() *scratch {
			made.Add(1)
			s := new(scratch)
			mu.Lock()
			all = append(all, s)
			mu.Unlock()
			return s
		}, func(s *scratch, i int) int {
			if !s.busy.CompareAndSwap(false, true) {
				t.Errorf("procs=%d: item %d got a scratch another worker is using", procs, i)
			}
			s.used++
			runtime.Gosched()
			s.busy.Store(false)
			return i * 2
		})
		for i, v := range out {
			if v != i*2 {
				t.Fatalf("procs=%d: out[%d] = %d", procs, i, v)
			}
		}
		if m := made.Load(); m < 1 || m > int64(procs) {
			t.Fatalf("procs=%d: newScratch ran %d times", procs, m)
		}
		used := 0
		for _, s := range all {
			used += s.used
		}
		if used != n {
			t.Fatalf("procs=%d: scratches served %d items, want %d", procs, used, n)
		}
	}
}

// settledGoroutines polls runtime.NumGoroutine until it is at most want
// or the deadline passes, and returns the last count: a worker has
// called wg.Done before it returns, so its exit may trail ForEach's.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestForEachLeavesNoGoroutines: ForEach's workers are transient. Once a
// call returns, normally or by re-raising a worker's panic, none of its
// workers is left running.
func TestForEachLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, procs := range []int{2, 8} {
		ForEach(procs, 500, func(_, _ int) { runtime.Gosched() })
		if got := settledGoroutines(base); got > base {
			t.Fatalf("procs=%d: %d goroutines after ForEach, %d before", procs, got, base)
		}
		func() {
			defer func() { _ = recover() }()
			ForEach(procs, 500, func(_, i int) {
				if i == 250 {
					panic("boom")
				}
			})
		}()
		if got := settledGoroutines(base); got > base {
			t.Fatalf("procs=%d: %d goroutines after a panicking ForEach, %d before", procs, got, base)
		}
	}
}

// TestForEachAfterPanicCoversEveryIndex: a call carries no state into
// the next, so the call after a panicking one still runs every index
// exactly once, on dense worker IDs.
func TestForEachAfterPanicCoversEveryIndex(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("worker panic not propagated")
			}
		}()
		ForEach(4, 100, func(_, i int) {
			if i%10 == 3 {
				panic("boom")
			}
		})
	}()
	const n = 1000
	counts := make([]int64, n)
	ForEach(4, n, func(w, i int) {
		if w < 0 || w >= 4 {
			t.Errorf("worker id %d out of [0,4)", w)
		}
		atomic.AddInt64(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d processed %d times after a panicking call", i, c)
		}
	}
}

// TestNewPoolIsInert: the Pool kept for the benchmark driver starts no
// goroutine, and closing it, twice, is harmless.
func TestNewPoolIsInert(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(8)
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("NewPool(8) changed the goroutine count from %d to %d", base, got)
	}
	p.Close()
	p.Close()
	if got := settledGoroutines(base); got > base {
		t.Fatalf("%d goroutines after Close, %d before", got, base)
	}
}
