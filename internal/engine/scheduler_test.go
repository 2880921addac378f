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

func schedulerOver(cache *labelstore.SharedCache) *Scheduler {
	s, _ := countingSchedulerOver(cache)
	return s
}

// submit queues one plan: a lone coalesced query is a group of one.
func submit(s *Scheduler, p Plan, b Binding) (*Outcome, error) {
	outs, err := s.SubmitGroup([]Plan{p}, []Binding{b})
	return outs[0], err
}

// countingSchedulerOver wires a scheduler to cache and counts groups:
// the scheduler snapshots exactly once per group, so the counter is
// the number of engine runs the queue was split into.
func countingSchedulerOver(cache *labelstore.SharedCache) (*Scheduler, *atomic.Int64) {
	unheld := make(chan struct{})
	close(unheld)
	s, groups, _ := heldSchedulerOver(cache, unheld)
	return s, groups
}

// heldSchedulerOver is countingSchedulerOver whose first group blocks at
// its snapshot until release is closed: the leader is inside a running
// group, so later submissions queue behind it. started is closed once
// the first group is held.
func heldSchedulerOver(cache *labelstore.SharedCache, release <-chan struct{}) (*Scheduler, *atomic.Int64, <-chan struct{}) {
	groups := new(atomic.Int64)
	started := make(chan struct{})
	return NewScheduler(
		func() *labelstore.Overlay {
			if groups.Add(1) == 1 {
				close(started)
				<-release
			}
			snap, _ := cache.Snapshot()
			return labelstore.NewOverlay(snap)
		},
		func(fresh map[int]float64) { cache.Publish(fresh) },
		cache.Admit,
	), groups, started
}

// serialOutcomes is the reference every coalescing test compares to:
// each plan executed alone over the label state its predecessors
// published (snapshot → execute → publish). It returns the outcomes and
// the cache they left behind.
func serialOutcomes(t *testing.T, plans []Plan, bind Binding) ([]*Outcome, *labelstore.SharedCache) {
	t.Helper()
	cache := labelstore.NewSharedCache()
	outs := make([]*Outcome, len(plans))
	for i, p := range plans {
		snap, _ := cache.Snapshot()
		overlay := labelstore.NewOverlay(snap)
		b := bind
		b.Labels = overlay
		out, err := Execute(p, b)
		if err != nil {
			t.Fatal(err)
		}
		cache.Publish(overlay.Fresh())
		outs[i] = out
	}
	return outs, cache
}

// mustPlans normalizes and validates one test plan per K.
func mustPlans(t *testing.T, ks ...int) []Plan {
	t.Helper()
	plans := make([]Plan, len(ks))
	for i, k := range ks {
		var err error
		if plans[i], err = NewPlan(testPlan(k)); err != nil {
			t.Fatal(err)
		}
	}
	return plans
}

// TestSchedulerGroupMatchesSerial is the scheduler's determinism
// contract at the engine level: a coalesced group's outcomes are
// bit-identical — IDs, scores, confidence, counters and simulated
// charges — to executing the same plans serially in submission order,
// each over the label state its predecessors left behind.
func TestSchedulerGroupMatchesSerial(t *testing.T) {
	art, src, udf := fixture(t)
	mkPlans := func() []Plan {
		ks := []int{10, 5, 3}
		ths := []float64{0.9, 0.99, 0.9}
		plans := make([]Plan, len(ks))
		for i := range ks {
			p := testPlan(ks[i])
			p.Threshold = ths[i]
			var err error
			plans[i], err = NewPlan(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		return plans
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}

	serial, serialCache := serialOutcomes(t, mkPlans(), bind)

	coalescedCache := labelstore.NewSharedCache()
	outs, err := schedulerOver(coalescedCache).SubmitGroup(mkPlans(), []Binding{bind, bind, bind})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if !reflect.DeepEqual(keyOf(outs[i]), keyOf(serial[i])) {
			t.Fatalf("coalesced plan %d diverged from serial submission order:\n%+v\nvs\n%+v",
				i, keyOf(outs[i]), keyOf(serial[i]))
		}
	}
	// The coalesced run shared labels: later plans rode the first plan's
	// confirmations, so only the group's first member paid the oracle
	// for overlapping frames.
	if outs[0].Stats.Cleaned == 0 {
		t.Fatal("first plan cleaned nothing; coalescing assertions are vacuous")
	}
	if outs[2].Stats.Cleaned != 0 {
		t.Fatalf("plan 2 (K=3 after K=10) cleaned %d frames, want 0 — labels did not flow through the group",
			outs[2].Stats.Cleaned)
	}
	// Both modes end with the same cache content.
	if a, b := serialCache.Len(), coalescedCache.Len(); a != b {
		t.Fatalf("cache contents diverged: serial %d labels, coalesced %d", a, b)
	}
}

// TestSchedulerCoalescesConcurrentSubmitters drives concurrent lone
// submitters (the race-gate workload) and checks group-commit batching:
// everyone gets the right answer, and the total oracle bill is at most
// what the first caller alone paid — coalescing plus the shared cache
// make every repeat free, whatever the interleaving.
func TestSchedulerCoalescesConcurrentSubmitters(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	sched := schedulerOver(cache)
	plan, err := NewPlan(testPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}

	lone, err := Execute(plan, Binding{Src: src, UDF: udf, Artifact: art,
		Labels: labelstore.NewOverlay(labelstore.Map{})})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	outs := make([]*Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = submit(sched, plan, bind)
		}(i)
	}
	wg.Wait()
	total := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submitter %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(outs[i].IDs, lone.IDs) || !reflect.DeepEqual(outs[i].Scores, lone.Scores) {
			t.Fatalf("submitter %d got a different answer", i)
		}
		total += outs[i].Stats.Cleaned
	}
	if total > lone.Stats.Cleaned {
		t.Fatalf("%d coalesced submitters cleaned %d frames total; one lone query cleans %d",
			n, total, lone.Stats.Cleaned)
	}
}

// TestSchedulerSplitsIncompatibleRuns checks that an incompatible
// neighbour (different cost model) splits the queue rather than
// poisoning the group: both halves still execute and answer.
func TestSchedulerSplitsIncompatibleRuns(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	sched := schedulerOver(cache)
	a, err := NewPlan(testPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Cost.OracleMS *= 2
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	outs, err := sched.SubmitGroup([]Plan{a, b}, []Binding{bind, bind})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0] == nil || outs[1] == nil {
		t.Fatalf("incompatible pair not fully executed: %v", outs)
	}
	if !reflect.DeepEqual(outs[0].IDs, outs[1].IDs) {
		t.Fatal("split runs over one cache disagreed on the answer")
	}
	// The second run still rides the first's published labels — splitting
	// loses in-flight sharing, not cache sharing.
	if outs[1].Stats.Cleaned != 0 {
		t.Fatalf("second (split) run cleaned %d frames, want 0 via the published cache", outs[1].Stats.Cleaned)
	}
}

// TestNextGroupTakesLeadingCompatibleRun pins the leader's one locked
// take: the next group is the queue's longest compatible prefix, and it
// never reaches past an incompatible neighbour to a later compatible
// plan.
func TestNextGroupTakesLeadingCompatibleRun(t *testing.T) {
	a := validPlan().Normalize()
	b := a
	b.Cost.OracleMS++
	for _, c := range []struct {
		queue []Plan
		want  int
	}{
		{[]Plan{a}, 1},
		{[]Plan{a, a, a}, 3},
		{[]Plan{a, a, b, a}, 2},
		{[]Plan{b, a, a}, 1},
		{[]Plan{b, b, a}, 2},
	} {
		queue := make([]*submission, len(c.queue))
		for i, p := range c.queue {
			queue[i] = &submission{plan: p}
		}
		if got := nextGroup(queue); got != c.want {
			t.Fatalf("nextGroup over %d plans = %d, want %d", len(c.queue), got, c.want)
		}
	}
}

// TestSchedulerMixedProcsMatchesSerial locks the mixed-worker-count
// binding rule: a group whose members request different Procs — here
// serial, wide and narrow — runs each member in the mode it asked for
// (the group keeps no pool; Execute makes one per parallel window
// plan), and every member's outcome (results AND simulated charges) is
// bit-identical to its own serial baseline, i.e. the plan executed
// alone with its own Procs over the label state its predecessors left
// behind. Runs under the race gate.
func TestSchedulerMixedProcsMatchesSerial(t *testing.T) {
	art, src, udf := fixture(t)
	procsOf := []int{1, 8, 2, 1}
	mkPlans := func() []Plan {
		ks := []int{10, 5, 3, 8}
		plans := make([]Plan, len(ks))
		for i := range ks {
			p := testPlan(ks[i])
			p.Procs = procsOf[i]
			var err error
			plans[i], err = NewPlan(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		return plans
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}

	// Serial baselines: each plan alone, at its own Procs, over its
	// predecessors' published labels.
	plans := mkPlans()
	serial, _ := serialOutcomes(t, plans, bind)

	cache := labelstore.NewSharedCache()
	sched, groups := countingSchedulerOver(cache)
	binds := make([]Binding, len(plans))
	for i := range binds {
		binds[i] = bind
	}
	outs, err := sched.SubmitGroup(mkPlans(), binds)
	if err != nil {
		t.Fatal(err)
	}
	if g := groups.Load(); g != 1 {
		t.Fatalf("mixed-Procs plans split into %d groups, want 1 (Procs never affects compatibility)", g)
	}
	for i := range outs {
		if !reflect.DeepEqual(keyOf(outs[i]), keyOf(serial[i])) {
			t.Fatalf("mixed-Procs member %d (Procs=%d) diverged from its serial baseline:\n%+v\nvs\n%+v",
				i, procsOf[i], keyOf(outs[i]), keyOf(serial[i]))
		}
	}
}

// TestSchedulerArrivalsDuringRunFormOneGroup is the group-commit
// contract: submissions that arrive while a group runs queue behind it
// and are committed together as exactly ONE next group, and every
// outcome still matches serial submission order.
func TestSchedulerArrivalsDuringRunFormOneGroup(t *testing.T) {
	art, src, udf := fixture(t)
	plans := mustPlans(t, 3, 10, 5, 8)
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	serial, _ := serialOutcomes(t, plans, bind)

	release := make(chan struct{})
	sched, groups, started := heldSchedulerOver(labelstore.NewSharedCache(), release)
	outs := make([]*Outcome, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = submit(sched, plans[i], bind)
		}()
	}
	launch(0)
	<-started // the first group holds the leader
	for i := 1; i < len(plans); i++ {
		// One at a time, so the queue order is the submission order.
		launch(i)
		waitFor(t, func() bool { return sched.QueuedForTest() == i })
	}
	close(release)
	wg.Wait()

	if g := groups.Load(); g != 2 {
		t.Fatalf("%d arrivals behind a running group formed %d groups in all, want 2", len(plans)-1, g)
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("plan %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(keyOf(outs[i]), keyOf(serial[i])) {
			t.Fatalf("member %d diverged from serial submission order:\n%+v\nvs\n%+v",
				i, keyOf(outs[i]), keyOf(serial[i]))
		}
	}
	if outs[1].Stats.Cleaned == 0 {
		t.Fatal("second group's first member cleaned nothing; sharing assertions are vacuous")
	}
	if outs[2].Stats.Cleaned != 0 {
		t.Fatalf("member 2 (K=5 after K=10) cleaned %d frames inside the shared group, want 0", outs[2].Stats.Cleaned)
	}
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerValidationErrorDelivered checks that a plan rejected by
// the engine surfaces to its submitter without wedging the scheduler.
func TestSchedulerValidationErrorDelivered(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	sched := schedulerOver(cache)
	bad := testPlan(len(art.Retained) + 1).Normalize() // K exceeds the relation
	good, err := NewPlan(testPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	outs, err := sched.SubmitGroup([]Plan{bad, good}, []Binding{bind, bind})
	if err == nil {
		t.Fatal("oversized K must surface an error")
	}
	if outs[0] != nil {
		t.Fatal("failed plan produced an outcome")
	}
	if outs[1] == nil {
		t.Fatal("healthy plan was starved by its failed neighbour")
	}
	// The scheduler stays usable.
	if _, err := submit(sched, good, bind); err != nil {
		t.Fatalf("scheduler wedged after a failed group: %v", err)
	}
}

// TestSchedulerSubmitPreCancelled pins the cheap path: a member whose
// context is already cancelled never enters the queue.
func TestSchedulerSubmitPreCancelled(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	sched := schedulerOver(cache)
	plan, err := NewPlan(testPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := submit(sched, plan, Binding{Src: src, UDF: udf, Artifact: art, Ctx: ctx})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("pre-cancelled submission returned (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if q := sched.QueuedForTest(); q != 0 {
		t.Fatalf("pre-cancelled submission left %d entries queued", q)
	}
	// The scheduler is untouched: a live submission still runs.
	if _, err := submit(sched, plan, Binding{Src: src, UDF: udf, Artifact: art}); err != nil {
		t.Fatalf("scheduler unusable after pre-cancelled submit: %v", err)
	}
}

// TestSchedulerCancelWhileQueuedWithdraws is the sibling-isolation
// contract for cancellation: a submission cancelled while queued behind
// a running group leaves the queue without joining any group — the
// surviving sibling answers exactly as if the cancelled query were
// never submitted, the canceller gets ctx.Err() without waiting out the
// running group, and nothing is left queued or admitted afterwards.
func TestSchedulerCancelWhileQueuedWithdraws(t *testing.T) {
	art, src, udf := fixture(t)
	plans := mustPlans(t, 10, 5, 3) // the running group, the victim, the survivor
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	serial, _ := serialOutcomes(t, []Plan{plans[0], plans[2]}, bind)

	cache := labelstore.NewSharedCache()
	release := make(chan struct{})
	sched, groups, started := heldSchedulerOver(cache, release)
	var leadOut, survivorOut *Outcome
	var leadErr, survivorErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leadOut, leadErr = submit(sched, plans[0], bind)
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	victimDone := make(chan error, 1)
	go func() {
		b := bind
		b.Ctx = ctx
		out, err := submit(sched, plans[1], b)
		if out != nil {
			err = errors.New("cancelled submission produced an outcome")
		}
		victimDone <- err
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivorOut, survivorErr = submit(sched, plans[2], bind)
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 2 })

	// The victim returns while the first group still holds the leader.
	cancel()
	select {
	case err := <-victimDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled submission returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled submission still waiting on the running group")
	}
	if q := sched.QueuedForTest(); q != 1 {
		t.Fatalf("%d submissions queued after the withdrawal, want 1", q)
	}
	close(release)
	wg.Wait()

	if leadErr != nil || survivorErr != nil {
		t.Fatalf("siblings errored: %v, %v", leadErr, survivorErr)
	}
	if g := groups.Load(); g != 2 {
		t.Fatalf("%d groups ran, want 2 — the running one and the survivor's", g)
	}
	for i, out := range []*Outcome{leadOut, survivorOut} {
		if !reflect.DeepEqual(keyOf(out), keyOf(serial[i])) {
			t.Fatalf("sibling %d perturbed by its neighbour's withdrawal:\n%+v\nvs\n%+v",
				i, keyOf(out), keyOf(serial[i]))
		}
	}
	if q, a := sched.QueuedForTest(), cache.InFlight(); q != 0 || a != 0 {
		t.Fatalf("drained scheduler leaked %d queued submissions and %d admission slots", q, a)
	}
}

// TestSchedulerCancelledMemberInsideGroup covers the other side of the
// race: once a leader has taken a submission into a group, cancellation
// is observed by the engine run itself — the member gets ctx.Err(), its
// siblings complete untouched, and the run's confirmed labels still
// publish.
func TestSchedulerCancelledMemberInsideGroup(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel at the group's snapshot: the leader has already taken both
	// members, so the cancelled one can no longer withdraw. (A member
	// cancelled before submission is never queued at all —
	// TestSchedulerSubmitPreCancelled.)
	sched := NewScheduler(
		func() *labelstore.Overlay {
			cancel()
			snap, _ := cache.Snapshot()
			return labelstore.NewOverlay(snap)
		},
		func(fresh map[int]float64) { cache.Publish(fresh) },
		cache.Admit,
	)
	a, err := NewPlan(testPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(testPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	cancelledBind := bind
	cancelledBind.Ctx = ctx
	outs, err := sched.SubmitGroup([]Plan{a, b}, []Binding{bind, cancelledBind})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("group error = %v, want the cancelled member's context.Canceled", err)
	}
	if outs[1] != nil {
		t.Fatal("cancelled member produced an outcome")
	}
	if outs[0] == nil {
		t.Fatal("healthy sibling starved by its cancelled neighbour")
	}
	if cache.Len() == 0 {
		t.Fatal("group's confirmed labels were not published")
	}
	// The scheduler stays usable and the repeat rides the published labels.
	repeat, err := submit(sched, a, bind)
	if err != nil {
		t.Fatalf("scheduler wedged after a cancelled member: %v", err)
	}
	if repeat.Stats.Cleaned != 0 {
		t.Fatalf("repeat cleaned %d frames, want 0 via the published cache", repeat.Stats.Cleaned)
	}
}
