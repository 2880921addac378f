package everest

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestCoalescedSharedSessionsShareOneScheduler is the cross-user
// coalescing scenario the scheduler exists for: N distinct shared
// sessions — one per user — fire the same query concurrently with
// Coalesce on. Group commit plus the shared label cache must keep the
// total oracle bill at one lone query's, whatever the interleaving,
// and every user gets the same answer.
func TestCoalescedSharedSessionsShareOneScheduler(t *testing.T) {
	labelstore.ResetForTest()
	defer labelstore.ResetForTest()
	src := testSource(t, 9000, 91)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ccfg := cfg
	ccfg.Coalesce = true
	const users = 6
	results := make([]*Result, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		sess, err := NewSharedSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			results[i], errs[i] = sess.Query(ccfg)
		}(i, sess)
	}
	wg.Wait()
	total := 0
	for i := 0; i < users; i++ {
		if errs[i] != nil {
			t.Fatalf("user %d: %v", i, errs[i])
		}
		for j := range lone.IDs {
			if results[i].IDs[j] != lone.IDs[j] || results[i].Scores[j] != lone.Scores[j] {
				t.Fatalf("user %d got a different answer", i)
			}
		}
		total += results[i].EngineStats.Cleaned
	}
	if total > lone.EngineStats.Cleaned {
		t.Fatalf("%d coalesced users cleaned %d frames total, a lone query cleans %d",
			users, total, lone.EngineStats.Cleaned)
	}
}

// gateUDF is a UDF under its inner UDF's name — so it binds to the
// same index, cache and scheduler — whose first Score call blocks until
// release is closed: a query scoring through it holds its group's
// leader inside Phase 2 while the test queues others behind it.
type gateUDF struct {
	vision.UDF
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (g *gateUDF) Score(src video.Source, ids []int) []float64 {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.UDF.Score(src, ids)
}

// TestCoalescedQueryCancelledWhileQueued is the regression lock for the
// queued-cancellation rule through the public serving path: a coalesced
// query — lone, or a QueryBatchCtx group withdrawn whole — that is
// cancelled while queued behind another session's running group
// returns ctx.Err() at once, not when that group finishes. The running
// group is held inside its oracle call, so "at once" is "before the
// hold is released", not a timing: a wait that ignored the member's
// context would hang this test until the release.
func TestCoalescedQueryCancelledWhileQueued(t *testing.T) {
	src := testSource(t, 3000, 53)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	lone, err := ix.Query(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	held := smallCfg(5)
	held.Coalesce = true
	victim := smallCfg(3)
	victim.Coalesce = true

	for _, members := range []int{1, 2} {
		labelstore.ResetForTest()
		gate := &gateUDF{UDF: udf, started: make(chan struct{}), release: make(chan struct{})}
		first, err := NewSharedSession(ix, src, gate)
		if err != nil {
			t.Fatal(err)
		}
		second, err := NewSharedSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		sched := first.scheduler()

		var firstRes *Result
		var firstErr error
		firstDone := make(chan struct{})
		go func() {
			defer close(firstDone)
			firstRes, firstErr = first.Query(held)
		}()
		<-gate.started

		ctx, cancel := context.WithCancel(context.Background())
		var results []*Result
		victimErr := make(chan error, 1)
		go func() {
			var err error
			if members == 1 {
				_, err = second.QueryCtx(ctx, victim)
			} else {
				results, err = second.QueryBatchCtx(ctx, slices.Repeat([]Config{victim}, members))
			}
			victimErr <- err
		}()
		waitUntil(t, func() bool { return sched.QueuedForTest() == members })
		cancel()
		select {
		case err := <-victimErr:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%d queued member(s) cancelled: got %v, want context.Canceled", members, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%d queued member(s) cancelled: still waiting on the running group", members)
		}
		for i, res := range results {
			if res != nil {
				t.Errorf("withdrawn batch member %d produced a result", i)
			}
		}
		if q, a := sched.QueuedForTest(), first.cache.InFlight(); q != 0 || a != 1 {
			t.Errorf("after the withdrawal %d queued / %d admitted, want the running query alone (0 / 1)", q, a)
		}
		close(gate.release)
		<-firstDone
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		if !reflect.DeepEqual(firstRes.IDs, lone.IDs) || !reflect.DeepEqual(firstRes.Scores, lone.Scores) ||
			firstRes.Clock.TotalMS() != lone.Clock.TotalMS() {
			t.Errorf("running query perturbed by the withdrawal of %d sibling(s)", members)
		}
		if q, a := sched.QueuedForTest(), first.cache.InFlight(); q != 0 || a != 0 {
			t.Errorf("leaked %d queued submission(s) and %d admission slot(s)", q, a)
		}
		if got := second.Queries(); got != 0 {
			t.Errorf("cancelled session counts %d completed queries", got)
		}
	}
	labelstore.ResetForTest()
}

// TestQueryBatchPartialFailureKeepsResults is the regression lock for
// the partly-failed batch contract, in both batch modes and at both
// failure stages: whether a member fails mid-engine (a K larger than
// the relation passes plan validation but fails at execution) or at
// plan compilation (an out-of-range threshold), the successful
// members' Results must come back — a slice of len(cfgs) with nil at
// the failed slot — alongside the indexed error, matching their
// baselines, and their paid-for labels must reach the cache, so a
// follow-up query rides them oracle-free. Before the fix the
// coalesced path returned nil (or short) results on the first error,
// vanishing every paid-for member's answer. The same table pins error
// attribution: a lone query's error is verbatim, a batch member's is
// that error under "everest: batch query i:", in both modes and at both
// stages, and when both stages fail in one batch the documented
// per-mode precedence picks the one reported.
func TestQueryBatchPartialFailureKeepsResults(t *testing.T) {
	src := testSource(t, 9000, 99)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	badExec := smallCfg(5)
	badExec.K = src.NumFrames() + 1 // valid plan shape, no relation that large
	badCompile := smallCfg(5)
	badCompile.Threshold = 2.0 // rejected by plan validation

	// Per-mode baselines for the surviving members: the independent mode
	// runs each member over a private overlay of the (empty) snapshot, so
	// cold solo queries are the reference; the coalesced mode runs them in
	// submission order over one shared overlay, so the reference is serial
	// session order (the failed member confirms nothing and drops out).
	solo := make([]*Result, 2)
	serial := make([]*Result, 2)
	serialSess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	for bi, cfg := range []Config{smallCfg(5), smallCfg(3)} {
		if solo[bi], err = ix.Query(src, udf, cfg); err != nil {
			t.Fatal(err)
		}
		if serial[bi], err = serialSess.Query(cfg); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		stage string
		bad   Config
	}{
		{"execute-fail", badExec},
		{"compile-fail", badCompile},
	} {
		for _, coalesce := range []bool{false, true} {
			mode := tc.stage + "/independent"
			baselines := solo
			if coalesce {
				mode = tc.stage + "/coalesced"
				baselines = serial
			}
			sess, err := NewSession(ix, src, udf)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := []Config{smallCfg(5), tc.bad, smallCfg(3)}
			for i := range cfgs {
				cfgs[i].Coalesce = coalesce
			}
			// A lone query's error is verbatim — what the uncached indexed
			// query says, whatever the mode — and a batch member's is the
			// same error under its batch index.
			_, loneErr := ix.Query(src, udf, tc.bad)
			if _, err := sess.Query(cfgs[1]); err == nil || err.Error() != loneErr.Error() {
				t.Fatalf("%s: lone query error %q, want verbatim %q", mode, err, loneErr)
			}
			results, err := sess.QueryBatch(cfgs)
			if want := "everest: batch query 1: " + loneErr.Error(); err == nil || err.Error() != want {
				t.Fatalf("%s: batch error %q, want %q", mode, err, want)
			}
			if len(results) != len(cfgs) {
				t.Fatalf("%s: got %d results for %d queries", mode, len(results), len(cfgs))
			}
			if results[1] != nil {
				t.Fatalf("%s: failed member produced a result", mode)
			}
			for bi, i := range []int{0, 2} {
				if results[i] == nil {
					t.Fatalf("%s: successful member %d's result vanished with its neighbour's error", mode, i)
				}
				want := baselines[bi]
				if !reflect.DeepEqual(results[i].IDs, want.IDs) || !reflect.DeepEqual(results[i].Scores, want.Scores) {
					t.Fatalf("%s: surviving member %d's answer diverged from its baseline", mode, i)
				}
			}
			// The survivors' labels were published: a repeat of member 0's
			// query is oracle-free.
			repeat, err := sess.Query(cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if repeat.EngineStats.Cleaned != 0 {
				t.Fatalf("%s: survivors' labels were not published — repeat cleaned %d frames", mode, repeat.EngineStats.Cleaned)
			}
		}
	}

	// Precedence when both stages fail in one batch: the lowest index,
	// except that a coalesced batch reports compile-stage failures first.
	for _, coalesce := range []bool{false, true} {
		sess, err := NewSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []Config{badExec, smallCfg(3), badCompile}
		want := "everest: batch query 0: "
		if coalesce {
			want = "everest: batch query 2: "
		}
		for i := range cfgs {
			cfgs[i].Coalesce = coalesce
		}
		if _, err := sess.QueryBatch(cfgs); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("coalesce=%t: two-stage failure reported as %q, want prefix %q", coalesce, err, want)
		}
		if got := sess.Queries(); got != 1 {
			t.Fatalf("coalesce=%t: session counts %d completed queries, want the one survivor", coalesce, got)
		}
	}
}

// TestSharedSessionsConflictingPolicies locks the strictest-wins
// policy contract on a shared cache: sibling sessions installing
// conflicting eviction knobs resolve to the pairwise minimum — the
// most recent session can neither loosen a sibling's bound with a
// bigger value nor erase it by leaving the knob zero (the
// last-writer-wins overwrite this is a regression test for).
func TestSharedSessionsConflictingPolicies(t *testing.T) {
	labelstore.ResetForTest()
	defer labelstore.ResetForTest()
	src := testSource(t, 9000, 101)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSharedSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharedSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	// Session A asks for a generous label cap; session B for a tight one.
	acfg := smallCfg(5)
	acfg.CacheMaxLabels = 1000
	if _, err := a.Query(acfg); err != nil {
		t.Fatal(err)
	}
	bcfg := smallCfg(5)
	bcfg.Threshold = 0.99
	bcfg.CacheMaxLabels = 1
	if _, err := b.Query(bcfg); err != nil {
		t.Fatal(err)
	}
	// Effective policy is the strictest: B's cap of 1 holds.
	// (TightenPolicy with a zero policy is a read — it merges nothing.)
	got := a.cache.TightenPolicy(labelstore.Policy{})
	want := labelstore.Policy{MaxLabels: 1}
	if got != want {
		t.Fatalf("conflicting installs resolved to %+v, want strictest-wins %+v", got, want)
	}
	// And the strict cap is live — a query leaving the knob zero neither
	// erases it nor escapes it: the cache kept only the newest batch.
	third := smallCfg(3)
	third.Threshold = 0.95
	res, err := a.Query(third)
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineStats.Cleaned > 0 && a.CachedLabels() > res.EngineStats.Cleaned {
		t.Fatalf("cache holds %d labels under a cap of 1 batch (newest cleaned %d) — the sibling's cap was lost",
			a.CachedLabels(), res.EngineStats.Cleaned)
	}
	if got := a.cache.TightenPolicy(labelstore.Policy{}); got != want {
		t.Fatalf("a zero-knob query changed the policy to %+v, want %+v kept", got, want)
	}
	// A re-install with a looser knob does not loosen.
	if _, err := a.Query(acfg); err != nil {
		t.Fatal(err)
	}
	if got := a.cache.TightenPolicy(labelstore.Policy{}); got != want {
		t.Fatalf("a later generous install loosened the policy to %+v, want %+v kept", got, want)
	}
	// Nor does a negative knob: the cap only ever tightens, so there is
	// no reset for a session to reach.
	negative := smallCfg(5)
	negative.CacheMaxLabels = -1
	if _, err := b.Query(negative); err != nil {
		t.Fatal(err)
	}
	if got := a.cache.TightenPolicy(labelstore.Policy{}); got != want {
		t.Fatalf("a negative knob changed the policy to %+v, want %+v kept", got, want)
	}
}

// TestSessionCacheMaxLabelsPolicy checks the Config.CacheMaxLabels
// knob threads through to the label cache: the cache stays bounded,
// evictions advance the version, and queries after eviction simply
// re-pay the oracle for what was dropped — same answer.
func TestSessionCacheMaxLabelsPolicy(t *testing.T) {
	src := testSource(t, 9000, 93)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(5)
	cfg.CacheMaxLabels = 1
	first, err := sess.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.EngineStats.Cleaned == 0 {
		t.Fatal("first query cleaned nothing; the eviction assertions would be vacuous")
	}
	// One batch is always kept (the newest), so the cache holds the first
	// query's labels for now.
	if sess.CachedLabels() != first.EngineStats.Cleaned {
		t.Fatalf("cache holds %d labels, first query cleaned %d", sess.CachedLabels(), first.EngineStats.Cleaned)
	}
	// A different query publishes a second batch, which evicts the first.
	bigger := smallCfg(5)
	bigger.Threshold = 0.99
	bigger.CacheMaxLabels = 1
	vBefore := sess.CacheVersion()
	if _, err := sess.Query(bigger); err != nil {
		t.Fatal(err)
	}
	if sess.CachedLabels() >= first.EngineStats.Cleaned+1 {
		t.Fatalf("cache grew to %d labels despite CacheMaxLabels=1", sess.CachedLabels())
	}
	if sess.CacheVersion() < vBefore+2 {
		t.Fatalf("eviction did not bump the version: %d → %d", vBefore, sess.CacheVersion())
	}
	// The evicted frames are re-charged, and the answer is unchanged.
	again, err := sess.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.IDs {
		if first.IDs[i] != again.IDs[i] || first.Scores[i] != again.Scores[i] {
			t.Fatalf("answer changed after eviction at %d", i)
		}
	}
}

// TestRejectedConfigLeavesCacheUntouched: a Config that fails plan
// compilation must not change the label cache it was aimed at — no cap
// installed, no durable directory bound — since a cap can never be
// loosened again once installed.
func TestRejectedConfigLeavesCacheUntouched(t *testing.T) {
	src := testSource(t, 9000, 97)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	defer closeDurableForTest(dir)
	bad := smallCfg(0) // K must be positive
	bad.CacheMaxLabels = 1
	bad.DurableDir = dir
	if _, err := sess.Query(bad); err == nil {
		t.Fatal("a K=0 query compiled")
	}
	if got := sess.cache.TightenPolicy(labelstore.Policy{}); got != (labelstore.Policy{}) {
		t.Fatalf("rejected Config installed %+v", got)
	}
	if got := sess.DurableDir(); got != "" {
		t.Fatalf("rejected Config bound the cache to %q", got)
	}
	// The directory is still free for another cache.
	other, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.EnableDurable(dir); err != nil {
		t.Fatalf("the directory a rejected Config named is taken: %v", err)
	}
}

// TestRejectedBatchMemberLeavesCacheUntouched: in a batch, only the
// members that compiled prepare the cache. A rejected member's cap and
// durable directory are not applied, while its compiled sibling still
// runs and answers.
func TestRejectedBatchMemberLeavesCacheUntouched(t *testing.T) {
	src := testSource(t, 9000, 97)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	defer closeDurableForTest(dir)
	bad := smallCfg(0) // K must be positive
	bad.CacheMaxLabels = 1
	bad.DurableDir = dir
	res, err := sess.QueryBatch([]Config{bad, smallCfg(5)})
	if err == nil || !strings.Contains(err.Error(), "batch query 0") {
		t.Fatalf("batch error = %v, want member 0's compile error", err)
	}
	if res[0] != nil || res[1] == nil || len(res[1].IDs) != 5 {
		t.Fatalf("batch results = %v, want only member 1 answered", res)
	}
	if got := sess.cache.TightenPolicy(labelstore.Policy{}); got != (labelstore.Policy{}) {
		t.Fatalf("rejected member installed %+v", got)
	}
	if got := sess.DurableDir(); got != "" {
		t.Fatalf("rejected member bound the cache to %q", got)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
