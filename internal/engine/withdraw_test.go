package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// TestSchedulerWithdrawAllQueuedReleasesLeadership: every submission
// queued behind a running group withdraws, so when the group finishes
// the leader finds the queue empty and must release leadership — never
// run a group for a withdrawn submission — so that the next submitter
// can lead.
func TestSchedulerWithdrawAllQueuedReleasesLeadership(t *testing.T) {
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

	// A: leader, no ctx; blocks inside runGroup via the admit hook so B
	// is provably queued behind a running group.
	aErr := make(chan error, 1)
	go func() {
		_, err := submit(s, Plan{K: 1, Threshold: 0.9}.Normalize(), Binding{})
		aErr <- err
	}()
	<-aInGroup

	// B: follower with a cancellable ctx, withdrawn while A still runs.
	ctx, cancel := context.WithCancel(context.Background())
	bErr := make(chan error, 1)
	go func() {
		_, err := submit(s, Plan{K: 1, Threshold: 0.9}.Normalize(), Binding{Ctx: ctx})
		bErr <- err
	}()
	waitFor(t, func() bool { return s.QueuedForTest() == 1 })
	cancel()
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn submission returned %v, want context.Canceled", err)
	}
	close(aRelease)
	<-aErr

	// The leader saw an empty queue and released leadership: a fresh
	// submission must find a working scheduler. (A leader wedged with
	// busy set would queue C forever and trip the test timeout.)
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

// TestSchedulerPartialWithdrawShrinksQueuedGroup: when the middle of
// the submissions queued behind a running group withdraws, the next
// group shrinks to the survivors, they still coalesce into ONE run, and
// each outcome — results AND simulated charges — is bit-identical to
// serial submission order with the withdrawn member absent.
func TestSchedulerPartialWithdrawShrinksQueuedGroup(t *testing.T) {
	art, src, udf := fixture(t)
	plans := mustPlans(t, 3, 10, 5, 8) // running, then queued A, B (withdraws), C
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	serial, _ := serialOutcomes(t, []Plan{plans[0], plans[1], plans[3]}, bind)

	release := make(chan struct{})
	sched, groups, started := heldSchedulerOver(labelstore.NewSharedCache(), release)
	ctx, cancel := context.WithCancel(context.Background())
	outs := make([]*Outcome, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		b := bind
		if i == 2 {
			b.Ctx = ctx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = submit(sched, p, b)
		}()
		if i == 0 {
			<-started
		} else {
			waitFor(t, func() bool { return sched.QueuedForTest() == i })
		}
	}

	cancel()
	waitFor(t, func() bool { return sched.QueuedForTest() == 2 })
	close(release)
	wg.Wait()

	if !errors.Is(errs[2], context.Canceled) || outs[2] != nil {
		t.Fatalf("withdrawn member returned (%v, %v), want (nil, context.Canceled)", outs[2], errs[2])
	}
	if g := groups.Load(); g != 2 {
		t.Fatalf("%d groups ran, want 2 — the survivors must still coalesce", g)
	}
	for i, j := range []int{0, 1, 3} {
		if errs[j] != nil {
			t.Fatalf("survivor %d: %v", j, errs[j])
		}
		if !reflect.DeepEqual(keyOf(outs[j]), keyOf(serial[i])) {
			t.Fatalf("survivor %d diverged from serial order without the withdrawn member:\n%+v\nvs\n%+v",
				j, keyOf(outs[j]), keyOf(serial[i]))
		}
	}
}
