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
	groups := new(atomic.Int64)
	return NewScheduler(
		func() *labelstore.Overlay {
			groups.Add(1)
			snap, _ := cache.Snapshot()
			return labelstore.NewOverlay(snap)
		},
		func(fresh map[int]float64) { cache.Publish(fresh) },
		cache.Admit,
	), groups
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

	// Serial reference: each plan runs alone over the cache state left by
	// its predecessors (snapshot → execute → publish).
	serialCache := labelstore.NewSharedCache()
	plans := mkPlans()
	serial := make([]*Outcome, len(plans))
	for i, p := range plans {
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
	serialCache := labelstore.NewSharedCache()
	plans := mkPlans()
	serial := make([]*Outcome, len(plans))
	for i, p := range plans {
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

// TestSchedulerCoalesceWaitGroupsArrivals is the latency-bounded
// group-close contract under a deterministic clock: the leader of a
// group whose plans grant a CoalesceWait budget holds the group open —
// blocked in the injected wait — while later compatible submissions
// arrive, then commits them all as ONE group. Without the wait the
// first submitter would have committed alone. Grouping changes who
// shares a run, never what anyone gets: every outcome still matches
// serial submission order.
func TestSchedulerCoalesceWaitGroupsArrivals(t *testing.T) {
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
	plans := []Plan{mkPlan(10), mkPlan(5), mkPlan(3)}
	bind := Binding{Src: src, UDF: udf, Artifact: art}

	// Serial reference for the submission order the test enforces.
	serialCache := labelstore.NewSharedCache()
	serial := make([]*Outcome, len(plans))
	for i, p := range plans {
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
	// The injected clock blocks the leader until every submission the
	// test launches is queued — grouping no longer depends on goroutine
	// scheduling. Later wait calls (none expected) return immediately.
	release := make(chan struct{})
	sched.SetWaitClockForTest(func(time.Duration) { <-release })

	outs := make([]*Outcome, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs[0], errs[0] = submit(sched, plans[0], bind)
	}()
	// The first submitter becomes leader and blocks in the wait with its
	// own submission still queued.
	waitFor(t, func() bool { return sched.QueuedForTest() == 1 })
	for i := 1; i < len(plans); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = submit(sched, plans[i], bind)
		}(i)
	}
	waitFor(t, func() bool { return sched.QueuedForTest() == len(plans) })
	close(release) // budget elapses; the leader re-reads the queue
	wg.Wait()

	if g := groups.Load(); g != 1 {
		t.Fatalf("latency-bounded close formed %d groups, want 1 — arrivals during the wait did not join", g)
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("plan %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(keyOf(outs[i]), keyOf(serial[i])) {
			t.Fatalf("waited group member %d diverged from serial submission order:\n%+v\nvs\n%+v",
				i, keyOf(outs[i]), keyOf(serial[i]))
		}
	}
	// The whole group shared one overlay: only the first member paid for
	// the overlapping frames.
	if outs[0].Stats.Cleaned == 0 {
		t.Fatal("leader cleaned nothing; grouping assertions are vacuous")
	}
	if outs[2].Stats.Cleaned != 0 {
		t.Fatalf("member 2 cleaned %d frames inside a single group, want 0", outs[2].Stats.Cleaned)
	}
}

// TestSchedulerNoWaitWithoutBudget pins the default: plans with a zero
// CoalesceWait never invoke the wait clock — pure group-commit, no
// added latency when idle.
func TestSchedulerNoWaitWithoutBudget(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	sched := schedulerOver(cache)
	var waits atomic.Int64
	sched.SetWaitClockForTest(func(time.Duration) { waits.Add(1) })
	plan, err := NewPlan(testPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(sched, plan, Binding{Src: src, UDF: udf, Artifact: art}); err != nil {
		t.Fatal(err)
	}
	if w := waits.Load(); w != 0 {
		t.Fatalf("zero-budget submission slept %d times, want 0", w)
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
// contract for cancellation: a submission cancelled while still queued
// leaves the queue without joining any group — the surviving sibling
// coalesces and answers exactly as if the cancelled query were never
// submitted, and the canceller gets ctx.Err() promptly instead of
// waiting out a run it no longer wants.
func TestSchedulerCancelWhileQueuedWithdraws(t *testing.T) {
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

	// Baseline: the surviving plan alone on an empty cache.
	lone, err := Execute(mkPlan(5), Binding{Src: src, UDF: udf, Artifact: art,
		Labels: labelstore.NewOverlay(labelstore.Map{})})
	if err != nil {
		t.Fatal(err)
	}

	cache := labelstore.NewSharedCache()
	sched, groups := countingSchedulerOver(cache)
	// Hold the leader open in the injected wait so the test controls
	// exactly what is queued when the group commits.
	release := make(chan struct{})
	sched.SetWaitClockForTest(func(time.Duration) { <-release })

	var leaderOut *Outcome
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderOut, leaderErr = submit(sched, mkPlan(5), bind)
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	var victimOut *Outcome
	var victimErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := bind
		b.Ctx = ctx
		victimOut, victimErr = submit(sched, mkPlan(3), b)
	}()
	waitFor(t, func() bool { return sched.QueuedForTest() == 2 })

	// Cancel while the leader is still holding the group open: the victim
	// must withdraw and return without waiting for the run.
	cancel()
	waitFor(t, func() bool { return sched.QueuedForTest() == 1 })
	close(release)
	wg.Wait()

	if !errors.Is(victimErr, context.Canceled) || victimOut != nil {
		t.Fatalf("cancelled submission returned (%v, %v), want (nil, context.Canceled)", victimOut, victimErr)
	}
	if leaderErr != nil {
		t.Fatalf("surviving sibling: %v", leaderErr)
	}
	if g := groups.Load(); g != 1 {
		t.Fatalf("queue split into %d groups, want 1", g)
	}
	if !reflect.DeepEqual(keyOf(leaderOut), keyOf(lone)) {
		t.Fatalf("surviving sibling perturbed by its neighbour's withdrawal:\n%+v\nvs\n%+v",
			keyOf(leaderOut), keyOf(lone))
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

// TestSchedulerInFlight locks the observed-load signal the EQL set
// planner consumes: submissions count from acceptance to delivery, so
// a blocked group is visible as backlog while it runs and invisible
// once drained.
func TestSchedulerInFlight(t *testing.T) {
	art, src, udf := fixture(t)
	cache := labelstore.NewSharedCache()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := NewScheduler(
		func() *labelstore.Overlay {
			// Block the first group at its snapshot so the test can
			// observe the queue mid-flight.
			once.Do(func() { close(started); <-release })
			snap, _ := cache.Snapshot()
			return labelstore.NewOverlay(snap)
		},
		func(fresh map[int]float64) { cache.Publish(fresh) },
		cache.Admit,
	)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("idle scheduler reports %d in flight", got)
	}

	p1, err := NewPlan(testPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(testPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	bind := Binding{Src: src, UDF: udf, Artifact: art}
	done := make(chan error, 1)
	go func() {
		_, err := s.SubmitGroup([]Plan{p1, p2}, []Binding{bind, bind})
		done <- err
	}()

	<-started
	if got := s.InFlight(); got != 2 {
		t.Fatalf("blocked group reports %d in flight, want 2", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("drained scheduler reports %d in flight", got)
	}
}
