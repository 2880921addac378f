package engine

import (
	"fmt"
	"slices"
	"sync"

	"github.com/everest-project/everest/internal/labelstore"
)

// Scheduler coalesces compatible plans submitted by different callers
// into one engine run, so N overlapping queries pay the oracle roughly
// once: the group shares a single label overlay (a frame one plan's
// cleaning confirmed is already certain in every later plan's D0, and is
// charged once) and one merged oracle-selection pass in submission
// order.
//
// Scheduling is group-commit: the first submitter becomes the leader
// and executes whatever is queued; submissions arriving while a run is
// in flight queue up and are coalesced into the next run, so coalescing
// width adapts to load with no added latency when idle.
//
// Determinism contract (locked by the coalesced golden test): a group's
// outcomes are bit-identical to executing the same plans serially in
// submission order, each over the label state left by its predecessors —
// i.e. coalescing changes who waits and who pays, never what anyone
// gets. Which plans end up in one group depends on arrival timing (like
// the snapshot a free-running Session.Query pins); SubmitGroup submits a
// pre-formed group atomically when the caller needs the grouping itself
// to be deterministic.
//
// One Scheduler serves one (video, frame count, UDF) identity — the
// sessions of one label cache. Incompatible neighbours in the queue
// (see Compatible) split the run: each maximal compatible prefix
// executes as its own group, still in submission order.
type Scheduler struct {
	// snapshot opens the group's shared overlay over the current label
	// cache state; publish folds the overlay's fresh labels back when
	// the group finishes; admit gates the group as one oracle-heavy unit
	// (the strictest positive AdmissionLimit of its members).
	snapshot func() *labelstore.Overlay
	publish  func(fresh map[int]float64)
	admit    func(limit int) (release func())

	mu    sync.Mutex
	busy  bool
	queue []*submission
}

// NewScheduler wires a scheduler to one label cache through the three
// hooks documented on the struct; none may be nil.
func NewScheduler(snapshot func() *labelstore.Overlay, publish func(fresh map[int]float64), admit func(limit int) (release func())) *Scheduler {
	return &Scheduler{snapshot: snapshot, publish: publish, admit: admit}
}

// NewCacheScheduler wires a scheduler to a shared label cache the
// standard way: groups snapshot one overlay from the cache, publish
// once when they finish, and count as one unit against the cache's
// admission gate. Shared sessions and streaming followers both attach
// their scheduler with this wiring.
func NewCacheScheduler(cache *labelstore.SharedCache) *Scheduler {
	return NewScheduler(
		func() *labelstore.Overlay {
			snap, _ := cache.Snapshot()
			return labelstore.NewOverlay(snap)
		},
		func(fresh map[int]float64) { cache.Publish(fresh) },
		cache.Admit,
	)
}

// QueuedForTest reports how many submissions are queued and not yet
// taken into a group — what a test holding the leader inside a running
// group polls to know its arrivals are queued. Tests only.
func (s *Scheduler) QueuedForTest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// submission is one queued plan with its delivery channel: done is
// closed exactly once, by the run that took the submission into its
// group (or by SubmitGroup itself for a member it never queued), after
// out and err are final.
type submission struct {
	plan Plan
	bind Binding
	out  *Outcome
	err  error
	done chan struct{}
}

// SubmitGroup queues plans as one atomic block — no foreign submission
// interleaves them — and blocks until every member is delivered; a lone
// query is a group of one. Each binding's Labels and Clock must be
// nil: the scheduler supplies the group's shared overlay and every
// plan gets its own fresh clock (per-plan charges stay separable).
// Outcomes are in input order, nil exactly where a member failed, and
// the lowest-index failure's error is returned alongside them verbatim
// (callers that know their members name the index: it is the first nil
// outcome).
//
// This is the scheduler's one wait loop, and a non-nil Binding.Ctx
// bounds it per member: a member whose context is already done is
// never queued, and one cancelled while still queued withdraws — it
// leaves the queue without joining any group, so siblings coalesce
// exactly as if it were never submitted — and fails with ctx.Err().
// Once a leader has taken a member into a group the wait is for the
// group (the engine run itself observes the cancellation and returns
// ctx.Err() without poisoning the group's other members).
func (s *Scheduler) SubmitGroup(ps []Plan, bs []Binding) ([]*Outcome, error) {
	if len(ps) != len(bs) {
		return nil, fmt.Errorf("everest: scheduler group has %d plans but %d bindings", len(ps), len(bs))
	}
	subs := make([]*submission, len(ps))
	live := make([]*submission, 0, len(ps))
	for i := range ps {
		subs[i] = &submission{plan: ps[i], bind: bs[i], done: make(chan struct{})}
		if ctx := bs[i].Ctx; ctx != nil && ctx.Err() != nil {
			subs[i].err = ctx.Err()
			close(subs[i].done)
			continue
		}
		live = append(live, subs[i])
	}
	if len(live) > 0 {
		s.enqueue(live)
	}
	outs := make([]*Outcome, len(subs))
	var firstErr error
	for i, sub := range subs {
		var cancelled <-chan struct{} // nil, which never fires, without a context
		if ctx := sub.bind.Ctx; ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-sub.done:
		case <-cancelled:
			if s.withdraw(sub) {
				sub.err = sub.bind.Ctx.Err()
			} else {
				// Already delivered, or a leader took the member into a
				// group and its run delivers (Execute returns ctx.Err()
				// for a cancelled member).
				<-sub.done
			}
		}
		outs[i] = sub.out
		if firstErr == nil {
			firstErr = sub.err
		}
	}
	return outs, firstErr
}

// withdraw removes a still-queued submission (cancelled by its
// submitter) from the queue. It reports false when a leader already
// took the submission into a group.
func (s *Scheduler) withdraw(sub *submission) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.queue, sub)
	if i < 0 {
		return false
	}
	// slices.Delete shifts left and zeroes the vacated trailing slot, so
	// the backing array never pins a withdrawn submission's bindings.
	s.queue = slices.Delete(s.queue, i, i+1)
	return true
}

// enqueue appends subs to the queue and, if no leader is running, makes
// the calling goroutine the leader. Followers return immediately and
// wait on their done channels.
func (s *Scheduler) enqueue(subs []*submission) {
	s.mu.Lock()
	s.queue = append(s.queue, subs...)
	if s.busy {
		s.mu.Unlock()
		return
	}
	s.busy = true
	s.mu.Unlock()
	s.lead(subs)
}

// lead drains the queue: each iteration takes the longest compatible
// prefix as one group and executes it. New submissions keep queueing
// while a group runs and are picked up by the next iteration. The
// prefix is taken under the same lock hold that found the queue
// non-empty, so a withdrawal either precedes the take (the member never
// joins) or follows it (withdraw reports false and the run delivers).
//
// A submitter-leader (mine non-nil) leads only until its own
// submissions are served: once they are, any remaining work is handed
// to a detached leader goroutine (mine nil, which drains to empty), so
// under sustained coalesced traffic a caller's latency is bounded by
// its own group plus whatever was already queued ahead of it — it
// never ends up serving other callers' queries indefinitely.
//
// The leadership release is atomic with the empty-queue check — busy
// is cleared under the same lock hold that observed the queue empty,
// so a submitter can never enqueue behind a leader that has already
// decided to stop. (runGroup recovers every panic, so lead cannot
// unwind with busy still set.)
func (s *Scheduler) lead(mine []*submission) {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.busy = false
			s.mu.Unlock()
			return
		}
		if len(mine) > 0 && allDelivered(mine) {
			s.mu.Unlock()
			go s.lead(nil)
			return
		}
		n := nextGroup(s.queue)
		group := s.queue[:n:n]
		s.queue = append([]*submission(nil), s.queue[n:]...)
		s.mu.Unlock()
		s.runGroup(group)
	}
}

// nextGroup returns the length of the queue's leading compatible run —
// the plans that form the next group. Caller holds s.mu.
func nextGroup(queue []*submission) (n int) {
	for n < len(queue) && (n == 0 || Compatible(queue[0].plan, queue[n].plan)) {
		n++
	}
	return n
}

// allDelivered reports whether every submission has been delivered.
func allDelivered(subs []*submission) bool {
	for _, sub := range subs {
		select {
		case <-sub.done:
		default:
			return false
		}
	}
	return true
}

// runGroup executes one compatible group: admit as one unit, open the
// shared overlay, execute plans in submission order over it, publish
// once. The deferred block publishes before delivering — even on panic
// — so completed members' paid-for labels always reach the cache and a
// submitter that immediately queries again snapshots its own labels;
// a panic becomes the unserved members' error rather than deadlocking
// followers.
func (s *Scheduler) runGroup(group []*submission) {
	var overlay *labelstore.Overlay
	defer func() {
		r := recover()
		if r != nil {
			for _, sub := range group {
				if sub.out == nil && sub.err == nil {
					sub.err = fmt.Errorf("everest: coalesced engine run panicked: %v", r)
				}
			}
		}
		// The overlay holds confirmed oracle labels only — a member that
		// failed mid-cleaning contributed just the labels its successful
		// dispatches paid for, and degraded estimates never enter an
		// overlay — so publishing after a partial failure is always safe.
		// A nil overlay (snapshot itself failed) publishes nothing.
		s.publish(overlay.Fresh())
		for _, sub := range group {
			close(sub.done)
		}
	}()

	limit := 0
	for _, sub := range group {
		limit = TighterLimit(limit, sub.plan.AdmissionLimit)
	}
	release := s.admit(limit)
	defer release()

	overlay = s.snapshot()
	for _, sub := range group {
		b := sub.bind
		b.Labels = overlay
		// Every plan charges a clock of its own, exactly as it would
		// alone.
		b.Clock = nil
		sub.out, sub.err = Execute(sub.plan, b)
	}
}

// TighterLimit folds one member's AdmissionLimit into the cap of the
// unit it is admitted with: the strictest positive limit wins. Zero and
// negative limits mean "uncapped" for that member and are ignored — a
// unit whose members all leave the knob unset (or explicitly disable
// it) is admitted without queueing, and one capped member is enough to
// gate the whole unit (it runs as a single oracle-heavy unit, so the
// strictest member's budget must hold for all of it). Start from 0.
func TighterLimit(limit, member int) int {
	if member > 0 && (limit == 0 || member < limit) {
		return member
	}
	return limit
}
