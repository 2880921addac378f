package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/everest-project/everest/internal/labelstore"
)

// Repro: a follower that withdraws during the leader's coalesce wait
// can be resurrected from the queue's backing array and executed anyway.
func TestWithdrawDuringCoalesceWaitRepro(t *testing.T) {
	var admits atomic.Int32
	aInGroup := make(chan struct{})
	aRelease := make(chan struct{})
	s := NewScheduler(
		func() *labelstore.Overlay { return labelstore.NewOverlay(labelstore.Map{}) },
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
	bDone := make(chan struct{})
	waited := make(chan struct{})
	s.SetWaitClockForTest(func(time.Duration) {
		cancel() // B's submitter cancels while the leader sleeps
		<-bDone  // B withdraws and its SubmitGroup returns
		close(waited)
	})

	// A: leader, no ctx, no wait; blocks in runGroup via the admit hook.
	aOut := make(chan error)
	go func() {
		_, err := submit(s, Plan{K: 1, Threshold: 0.9}.Normalize(), Binding{})
		aOut <- err
	}()
	<-aInGroup

	// B: follower with a coalesce wait and a cancellable ctx.
	go func() {
		_, err := submit(s, Plan{K: 1, Threshold: 0.9, CoalesceWait: time.Millisecond}.Normalize(), Binding{Ctx: ctx})
		if err != context.Canceled {
			t.Errorf("B: got err %v, want context.Canceled", err)
		}
		close(bDone)
	}()

	// Let B reach the queue before releasing A (crude but deterministic
	// enough for a repro: B must be enqueued before A's group finishes).
	time.Sleep(50 * time.Millisecond)
	close(aRelease)
	<-aOut
	<-waited
	// Give the detached leader time to (wrongly) run the withdrawn B.
	time.Sleep(100 * time.Millisecond)

	if n := admits.Load(); n != 1 {
		t.Fatalf("admit called %d times; want 1 — the withdrawn submission was executed", n)
	}
}
