package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/everest-project/everest/internal/labelstore"
)

// TestSchedulerWithdrawAllDuringWaitReleasesLeadership is the
// deterministic (clock-injected) form of the withdraw-resurrection
// repro: the leader holds a group open for a CoalesceWait budget, every
// queued submission withdraws during the wait, and the leader must
// observe the empty queue when it re-locks — never slicing the
// withdrawn submission back out of the backing array — and release
// leadership so the next submitter can lead.
func TestSchedulerWithdrawAllDuringWaitReleasesLeadership(t *testing.T) {
	var snapshots, admits atomic.Int32
	aInGroup := make(chan struct{})
	aRelease := make(chan struct{})
	s := NewScheduler(
		func() *labelstore.Overlay {
			snapshots.Add(1)
			return labelstore.NewOverlay(labelstore.Map{})
		},
		func(map[int]float64) {},
		func(int) func() {
			if admits.Add(1) == 1 {
				close(aInGroup)
				<-aRelease
			}
			return func() {}
		},
	)

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan struct{})
	s.SetWaitClockForTest(func(time.Duration) {
		// The wait clock runs on the leader goroutine with the queue
		// unlocked: cancel the sole queued submission and hold the wait
		// open until its withdrawal has emptied the queue.
		cancel()
		for s.QueuedForTest() != 0 {
			time.Sleep(time.Millisecond)
		}
		close(waited)
	})

	// A: leader, no ctx, no budget; blocks inside runGroup via the admit
	// hook so B is provably queued before A's group finishes.
	aErr := make(chan error, 1)
	go func() {
		_, err := submit(s, Plan{K: 1, Threshold: 0.9}.Normalize(), Binding{})
		aErr <- err
	}()
	<-aInGroup

	// B: follower with a coalesce wait and a cancellable ctx.
	bErr := make(chan error, 1)
	go func() {
		_, err := submit(s, Plan{K: 1, Threshold: 0.9, CoalesceWait: time.Millisecond}.Normalize(), Binding{Ctx: ctx})
		bErr <- err
	}()
	waitFor(t, func() bool { return s.QueuedForTest() == 1 })

	close(aRelease)
	<-aErr
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn submission returned %v, want context.Canceled", err)
	}
	<-waited

	// The leader saw an empty queue after the wait and released
	// leadership: a fresh submission must find a working scheduler. (A
	// leader wedged with busy set would queue C forever and trip the
	// test timeout.)
	if _, err := submit(s, Plan{K: 1, Threshold: 0.9}.Normalize(), Binding{}); err == nil {
		t.Fatal("empty-binding submission unexpectedly succeeded; fixture drift")
	}

	// Exactly two groups ran — A's and C's. The withdrawn B was never
	// admitted, never snapshotted, never executed.
	if n := admits.Load(); n != 2 {
		t.Fatalf("admit called %d times, want 2 — the withdrawn submission was executed", n)
	}
	if n := snapshots.Load(); n != 2 {
		t.Fatalf("snapshot called %d times, want 2 — a group formed from an empty queue", n)
	}
}

// TestSchedulerPartialWithdrawDuringWaitShrinksGroup pins the group
// recomputation contract: when only part of a compatible prefix
// withdraws mid-wait, the group shrinks to the survivors, they still
// coalesce into ONE run, and each survivor's outcome — results AND
// simulated charges — is bit-identical to serial submission order with
// the withdrawn member absent.
func TestSchedulerPartialWithdrawDuringWaitShrinksGroup(t *testing.T) {
	art, src, udf := fixture(t)
	mkPlan := func(k int) Plan {
		p := testPlan(k)
		p.CoalesceWait = 50 * time.Millisecond
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}

	// Serial reference for the surviving order: A then C, each over the
	// label state its predecessor published — as if B were never
	// submitted.
	serialCache := labelstore.NewSharedCache()
	serial := make([]*Outcome, 2)
	for i, p := range []Plan{mkPlan(10), mkPlan(3)} {
		snap, _ := serialCache.Snapshot()
		overlay := labelstore.NewOverlay(snap)
		b := bind
		b.Labels = overlay
		out, err := Execute(p, b)
		if err != nil {
			t.Fatal(err)
		}
		serialCache.Publish(overlay.Fresh())
		serial[i] = out
	}

	cache := labelstore.NewSharedCache()
	sched, groups := countingSchedulerOver(cache)
	// Hold the leader open in the injected wait so the test controls
	// exactly what is queued — and what has withdrawn — at commit time.
	release := make(chan struct{})
	sched.SetWaitClockForTest(func(time.Duration) { <-release })

	var wg sync.WaitGroup
	var aOut, cOut *Outcome
	var aErr, cErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		aOut, aErr = submit(sched, mkPlan(10), bind)
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	var bOut *Outcome
	var bErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := bind
		b.Ctx = ctx
		bOut, bErr = submit(sched, mkPlan(5), b)
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 2 })

	wg.Add(1)
	go func() {
		defer wg.Done()
		cOut, cErr = submit(sched, mkPlan(3), bind)
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 3 })

	// B — the middle of the compatible prefix — withdraws mid-wait; the
	// queue shrinks around it and the group commits as [A, C].
	cancel()
	waitFor(t, func() bool { return sched.QueuedForTest() == 2 })
	close(release)
	wg.Wait()

	if !errors.Is(bErr, context.Canceled) || bOut != nil {
		t.Fatalf("withdrawn member returned (%v, %v), want (nil, context.Canceled)", bOut, bErr)
	}
	if aErr != nil || cErr != nil {
		t.Fatalf("survivors errored: A=%v C=%v", aErr, cErr)
	}
	if g := groups.Load(); g != 1 {
		t.Fatalf("survivors split into %d groups, want 1 — they must still coalesce", g)
	}
	if !reflect.DeepEqual(keyOf(aOut), keyOf(serial[0])) {
		t.Fatalf("survivor A diverged from serial order without B:\n%+v\nvs\n%+v",
			keyOf(aOut), keyOf(serial[0]))
	}
	if !reflect.DeepEqual(keyOf(cOut), keyOf(serial[1])) {
		t.Fatalf("survivor C diverged from serial order without B:\n%+v\nvs\n%+v",
			keyOf(cOut), keyOf(serial[1]))
	}
}
