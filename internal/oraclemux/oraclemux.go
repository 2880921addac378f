// Package oraclemux is the process-wide oracle dispatch queue: a
// GPU-style multiplexer that consolidates Phase 2 confirmation batches
// from *all* in-flight engine runs — across sessions, label caches and
// videos — into device batches, the way a serving deployment funnels
// every query's oracle work through one GPU-resident model.
//
// Without the mux, every plan-level oracle call is its own device
// launch: N concurrent queries over M videos pay N×(calls per query)
// launch overheads (simclock.CostModel.LaunchOverheadMS each), even though
// the device could have scored their frames in far fewer invocations.
// The mux extends the paper's §3.5 batch-inference observation from
// within one query to across the whole process: requests that are in
// flight together and target the same oracle model are packed into one
// consolidated launch.
//
// Scheduling is group-commit, the same discipline as the coalescing
// scheduler (internal/engine): the first requester becomes the
// dispatcher and launches whatever is queued; requests arriving while a
// launch is in flight queue up and are consolidated into the next one,
// so batch width adapts to load with no added latency when idle.
//
// Determinism contract: the mux never changes what any caller gets or
// what any plan is billed. A request's scores are exactly
// udf.Score(src, ids) — scoring is a pure function of the frames, so
// packing requests together cannot perturb results — and per-plan
// simulated charges are made by the engine exactly as in independent
// execution. What the mux adds is *device-side* accounting: a
// simclock.Clock that charges one launch overhead per consolidated
// batch plus each request's per-frame inference cost, extending the
// scale-out cost model (simclock.Clock.ChargeParallelMax accounts P
// accelerators; the mux accounts one shared accelerator multiplexing
// everyone). Stats exposes the consolidation ratio — Launches vs
// Requests — and the simulated launch overhead the consolidation saved.
// Which requests share a launch depends on arrival timing, exactly like
// coalesced group membership; only the device totals reflect it, never
// per-plan outcomes.
package oraclemux

import (
	"context"
	"sync"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// request is one plan-level confirmation batch awaiting dispatch.
type request struct {
	src  video.Source
	udf  vision.UDF
	ids  []int
	cost simclock.CostModel

	scores []float64
	err    error
	done   chan struct{}
}

// batchKey identifies requests one device launch may serve: the same
// oracle model (UDF) under the same simulated cost model, so the
// consolidated batch has one well-defined launch overhead. Videos may
// differ — a GPU-resident detector does not care which stream a frame
// decoded from.
type batchKey struct {
	udf  string
	cost simclock.CostModel
}

func (r *request) key() batchKey { return batchKey{udf: r.udf.Name(), cost: r.cost} }

// Stats is a snapshot of the mux's device-side accounting.
type Stats struct {
	// Requests counts plan-level confirmation batches submitted.
	Requests int
	// Launches counts consolidated device batches dispatched; the
	// consolidation ratio is Requests/Launches (1 when every request
	// launched alone).
	Launches int
	// Frames counts frames scored across all launches.
	Frames int
	// DeviceMS is the simulated device time: one LaunchOverheadMS launch
	// overhead per consolidated batch plus every request's per-frame
	// inference cost.
	DeviceMS float64
	// SavedMS is the launch overhead consolidation avoided versus
	// dispatching every request independently.
	SavedMS float64
	// Withdrawn counts requests cancelled by their submitter while
	// still queued — they left the queue before any launch took them.
	Withdrawn int
}

// Mux is one oracle dispatch queue. The zero value is not usable; use
// New, or Shared for the process-wide instance every engine run with
// Plan.UseMux submits to.
type Mux struct {
	// maxFrames bounds one consolidated batch (0 = unbounded): a real
	// device has a maximum inference batch, and the splitter closes a
	// batch rather than exceed it. A single request larger than the
	// bound launches alone — requests are never split across launches,
	// so a plan-level call's frames always share one launch, as they do
	// without the mux.
	maxFrames int

	mu    sync.Mutex
	busy  bool
	queue []*request
	clock *simclock.Clock
	stats Stats
}

// New returns a mux whose consolidated batches hold at most maxFrames
// frames (0 = unbounded).
func New(maxFrames int) *Mux {
	return &Mux{maxFrames: maxFrames, clock: simclock.NewClock()}
}

// shared is the process-wide mux: one simulated device for the whole
// serving process, unbounded batches.
var sharedMux = New(0)

// Shared returns the process-wide mux.
func Shared() *Mux { return sharedMux }

// Score scores the given frames with the UDF's oracle through the
// dispatch queue, blocking until the consolidated launch that carries
// them completes. The returned scores are exactly what a direct
// dispatch (vision.SafeScore) would return; cost is the caller's
// simulated cost model, used for device-side accounting only (the
// caller charges its own clock as usual).
//
// Failure semantics: a failing or panicking UDF fails only its own
// request, as a typed error (*vision.OracleError) — never a re-raised
// panic in the submitter's goroutine, and never the rest of the batch.
// A non-nil ctx bounds the wait: a request cancelled while still
// queued withdraws — it leaves the queue without perturbing the
// batches its siblings consolidate into — and returns ctx.Err(); once
// a launch has taken the request, Score waits for that launch (a
// device batch completes as a unit).
func (m *Mux) Score(ctx context.Context, src video.Source, udf vision.UDF, ids []int, cost simclock.CostModel) ([]float64, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	req := &request{src: src, udf: udf, ids: ids, cost: cost, done: make(chan struct{})}
	m.mu.Lock()
	m.queue = append(m.queue, req)
	m.stats.Requests++
	if m.busy {
		m.mu.Unlock()
	} else {
		m.busy = true
		m.mu.Unlock()
		m.dispatch(req)
	}
	if ctx != nil {
		select {
		case <-req.done:
		case <-ctx.Done():
			if m.withdraw(req) {
				return nil, ctx.Err()
			}
			// A launch already took the request; it completes as a unit.
			<-req.done
		}
	} else {
		<-req.done
	}
	return req.scores, req.err
}

// withdraw removes a still-queued request (cancelled by its submitter)
// from the dispatch queue. It reports false when a dispatcher already
// took the request into a launch.
func (m *Mux) withdraw(req *request) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range m.queue {
		if r == req {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.stats.Withdrawn++
			return true
		}
	}
	return false
}

// dispatch drains the queue: each iteration takes everything queued,
// consolidates it into device batches and launches them. A
// requester-dispatcher (mine non-nil) serves only until its own request
// is done, then hands any remaining work to a detached dispatcher, so a
// caller's latency is bounded by the launches already ahead of it. The
// busy flag is cleared under the same lock hold that observed the queue
// empty, so a submitter can never enqueue behind a dispatcher that has
// already decided to stop.
func (m *Mux) dispatch(mine *request) {
	for {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.busy = false
			m.mu.Unlock()
			return
		}
		if mine != nil {
			select {
			case <-mine.done:
				m.mu.Unlock()
				go m.dispatch(nil)
				return
			default:
			}
		}
		pending := m.queue
		m.queue = nil
		m.mu.Unlock()
		for _, batch := range consolidate(pending, m.maxFrames) {
			m.launch(batch)
		}
	}
}

// launch executes one consolidated device batch: every request's frames
// are scored, the device clock is charged once — the batch's single
// launch overhead plus each request's per-frame inference cost — and
// then the whole batch delivers, the way a real device launch completes
// as a unit. Accounting strictly precedes delivery so that once a
// submitter's Score has returned, its launch is visible in Stats — an
// observer that joins all submitters can never see a request counted
// but its launch missing. A failing or panicking UDF fails its own
// request only (vision.SafeScore converts both into a typed error);
// the rest of the batch is still served, and the failed request's
// frames are not counted as scored or charged (its scoring never
// completed).
func (m *Mux) launch(batch []*request) {
	frames := 0
	deviceMS := batch[0].cost.LaunchOverheadMS(1)
	for _, r := range batch {
		r.scores, r.err = vision.SafeScore(r.udf, r.src, r.ids)
		if r.err != nil {
			continue
		}
		frames += len(r.ids)
		deviceMS += float64(len(r.ids)) * r.udf.OracleCostMS(r.cost)
	}
	m.clock.Charge(simclock.PhaseConfirm, deviceMS)
	m.mu.Lock()
	m.stats.Launches++
	m.stats.Frames += frames
	m.stats.DeviceMS = m.clock.TotalMS()
	m.stats.SavedMS += batch[0].cost.LaunchOverheadMS(len(batch) - 1)
	m.mu.Unlock()
	for _, r := range batch {
		close(r.done)
	}
}

// Stats returns a snapshot of the device-side accounting. Benchmarks
// diff two snapshots around a workload; absolute values accumulate for
// the mux's lifetime.
func (m *Mux) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// pending reports the queued-but-unlaunched request count (tests).
func (m *Mux) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// consolidate packs the pending requests, in arrival order, into device
// batches via the index splitter below.
func consolidate(reqs []*request, maxFrames int) [][]*request {
	groups := consolidateBy(len(reqs),
		func(i int) batchKey { return reqs[i].key() },
		func(i int) int { return len(reqs[i].ids) },
		maxFrames)
	batches := make([][]*request, len(groups))
	for b, g := range groups {
		batch := make([]*request, len(g))
		for j, i := range g {
			batch[j] = reqs[i]
		}
		batches[b] = batch
	}
	return batches
}

// consolidateBy is the batch-consolidation splitter: it partitions the
// indices 0..n-1, in order, into batches such that every batch holds
// one key only and at most maxFrames frames (maxFrames <= 0 means
// unbounded; a single item larger than the bound gets a batch of its
// own). Each key keeps one open batch: an item joins its key's open
// batch when it fits, otherwise it closes that batch and opens a new
// one, so interleaved arrivals of two keys consolidate into two batches
// rather than splitting at every key switch. Batches are ordered by
// their first item's arrival; the partition is a pure function of
// (keys, sizes, maxFrames).
func consolidateBy[K comparable](n int, key func(int) K, size func(int) int, maxFrames int) [][]int {
	var batches [][]int
	var frames []int
	open := make(map[K]int)
	for i := 0; i < n; i++ {
		k := key(i)
		if b, ok := open[k]; ok && (maxFrames <= 0 || frames[b]+size(i) <= maxFrames) {
			batches[b] = append(batches[b], i)
			frames[b] += size(i)
			continue
		}
		open[k] = len(batches)
		batches = append(batches, []int{i})
		frames = append(frames, size(i))
	}
	return batches
}
