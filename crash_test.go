package everest

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/faultinject"
	"github.com/everest-project/everest/internal/labelstore"
)

// The crash suite proves the durability layer's central property: kill
// the process at ANY filesystem operation — every torn write, every
// unsynced rename, every mid-sweep checkpoint — and reopening the
// directory yields a consistent prefix of the publish history. Never a
// panic, never a partial batch, never a version number bound to
// different labels than it had before the crash. Everything here runs
// under `make crash` with the race detector.

// crashScript drives a deterministic publish/evict history against a
// cache: 10 publish batches of 3 frames with a MaxLabels policy tight
// enough that evictions interleave. Every crash-run cache and the
// reference cache execute exactly this sequence. It returns the
// versions a caller could observe: the one TightenPolicy leaves and
// each one Publish returns — after its eviction, when it made one.
func crashScript(c *labelstore.SharedCache) (observed []uint64) {
	c.TightenPolicy(labelstore.Policy{MaxLabels: 9})
	observed = append(observed, c.Version())
	for i := 1; i <= 10; i++ {
		observed = append(observed, c.Publish(map[int]float64{
			10 * i:     float64(i),
			10*i + 1:   float64(i) + 0.5,
			10*i + 2:   float64(i) + 0.25,
			10*i%7 + 3: float64(i) + 0.125, // overlap across batches
		}))
	}
	return observed
}

func flatten(m labelstore.Map) map[int]float64 {
	out := make(map[int]float64)
	m.Range(func(f int, v float64) bool {
		out[f] = v
		return true
	})
	return out
}

// historyWAL is a labelstore.WAL that keeps no log: it applies each
// logged publish and eviction to a plain map copy of the last state,
// so states[v] is the label state the cache's version v named, and
// checks at every Commit that the cache's map flattens to the state its
// staged records produced.
type historyWAL struct {
	states []map[int]float64
	err    error
}

func (h *historyWAL) Dir() string { return "history" }

func (h *historyWAL) AppendPublish(version uint64, frames []int, scores []float64) error {
	next := h.next(version)
	for i, f := range frames {
		next[f] = scores[i]
	}
	return nil
}

func (h *historyWAL) AppendEvict(version uint64, frames []int) error {
	next := h.next(version)
	for _, f := range frames {
		delete(next, f)
	}
	return nil
}

// next appends a copy of the last state as version's and returns it.
func (h *historyWAL) next(version uint64) map[int]float64 {
	if version != uint64(len(h.states)) && h.err == nil {
		h.err = fmt.Errorf("version %d logged after %d states", version, len(h.states))
	}
	next := maps.Clone(h.states[len(h.states)-1])
	h.states = append(h.states, next)
	return next
}

func (h *historyWAL) Commit(labels labelstore.Map) error {
	last := len(h.states) - 1
	if got := flatten(labels); !reflect.DeepEqual(got, h.states[last]) && h.err == nil {
		h.err = fmt.Errorf("commit at version %d: the cache's map (%d labels) is not the state its records produced (%d labels)",
			last, len(got), len(h.states[last]))
	}
	return nil
}

func (h *historyWAL) Adopt(labelstore.Map, uint64) error {
	return errors.New("historyWAL: adopt unsupported")
}

func (h *historyWAL) Recovered() (labelstore.Map, uint64) { return labelstore.Map{}, 0 }

// crashReference runs crashScript once against a historyWAL and
// returns the exact label state at every version of the sequence — the
// ground truth each crash point's recovery is judged against, derived
// from the logged batches alone — and the versions a caller observed,
// the initial version 0 among them. A publish that evicts bumps the
// version twice, so the version between is one no caller observed.
func crashReference(t *testing.T) (expected []map[int]float64, observed map[uint64]bool, final uint64) {
	t.Helper()
	h := &historyWAL{states: []map[int]float64{{}}}
	cache := labelstore.NewSharedCache()
	if err := cache.EnableDurable(h); err != nil {
		t.Fatal(err)
	}
	observed = map[uint64]bool{0: true}
	for _, v := range crashScript(cache) {
		observed[v] = true
	}
	if h.err != nil {
		t.Fatal(h.err)
	}
	final = cache.Version()
	if uint64(len(h.states)) != final+1 {
		t.Fatalf("reference logged %d states for version %d", len(h.states), final)
	}
	if len(observed) == int(final)+1 {
		t.Fatal("no publish evicted, so every version was observed; the harness needs one that was not")
	}
	return h.states, observed, final
}

// TestCrashEveryPrefixConsistent kills the durable store at every
// mutating filesystem operation of the full workload — appends, fsyncs,
// segment rotations, checkpoint temp writes, renames, sweeps — and
// asserts that (a) the cache keeps serving the complete history from
// RAM (availability over durability), and (b) a process restart
// recovers exactly the state at some version of the history that a
// Publish or TightenPolicy returned (or the initial one): a consistent
// prefix of whole commits, never a publish without the eviction its
// lock hold made.
func TestCrashEveryPrefixConsistent(t *testing.T) {
	expected, observed, final := crashReference(t)

	// Fault-free run through the fault layer counts the crash points.
	// CheckpointEvery 4 puts checkpoint writes, renames and sweeps into
	// the op stream so crashes land inside them too.
	probe := faultinject.NewFaultFS(nil, 11)
	{
		store, err := durable.Open(t.TempDir(), durable.Options{FS: probe, CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		cache := labelstore.NewSharedCache()
		if err := cache.EnableDurable(store); err != nil {
			t.Fatal(err)
		}
		crashScript(cache)
		if err := cache.DurableErr(); err != nil {
			t.Fatal(err)
		}
		store.Close()
	}
	ops := probe.Stats().Ops
	if ops < 20 {
		t.Fatalf("workload has only %d crash points; harness expects a real op stream", ops)
	}

	for k := 0; k < ops; k++ {
		dir := t.TempDir()
		fs := faultinject.NewFaultFS(nil, 11).CrashAt(k)
		cache := labelstore.NewSharedCache()
		store, err := durable.Open(dir, durable.Options{FS: fs, CheckpointEvery: 4})
		if err == nil {
			// Attach may itself fail at later crash points; the cache then
			// runs RAM-only, which is still the dead-WAL contract.
			_ = cache.EnableDurable(store)
		}
		crashScript(cache)

		// Availability: whatever the disk did, the RAM cache served the
		// whole history.
		if cache.Version() != final {
			t.Fatalf("crash@%d: RAM cache stopped at version %d, want %d", k, cache.Version(), final)
		}
		if got := flatten(snapshotOf(cache)); !reflect.DeepEqual(got, expected[final]) {
			t.Fatalf("crash@%d: RAM cache diverged from the history", k)
		}

		// Restart: recovery must land exactly on some version's state.
		recovered, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", k, err)
		}
		m, v := recovered.Recovered()
		if v > final {
			t.Fatalf("crash@%d: recovered version %d beyond history end %d", k, v, final)
		}
		if got := flatten(m); !reflect.DeepEqual(got, expected[v]) {
			t.Fatalf("crash@%d: recovered state at version %d is not the history's state at %d:\n got %v\nwant %v",
				k, v, v, got, expected[v])
		}
		if !observed[v] {
			t.Fatalf("crash@%d: recovered version %d, which no Publish or TightenPolicy returned", k, v)
		}
		// The recovered prefix accepts the continuation: version v+1
		// commits cleanly (continuity, no repeated-version ambiguity).
		if v < final {
			err := recovered.AppendPublish(v+1, []int{9999}, []float64{1})
			if err == nil {
				err = recovered.Commit(m.Set(9999, 1))
			}
			if err != nil {
				t.Fatalf("crash@%d: recovered store refuses continuation at %d: %v", k, v+1, err)
			}
		}
		recovered.Close()
	}
}

// TestCrashDuringRecoveryStillConsistent crashes the process AGAIN
// while recovery is repairing the first crash's damage (truncating the
// torn tail, removing unreachable segments, syncing), then recovers
// cleanly: every double-crash must still land on a consistent prefix
// at a version some caller observed — recovery is idempotent and its
// own writes are crash-safe.
func TestCrashDuringRecoveryStillConsistent(t *testing.T) {
	expected, observed, final := crashReference(t)

	// tornDir rebuilds the first crash's directory state from scratch
	// (each recovery attempt mutates it, so every (k, j) pair needs a
	// fresh one).
	tornDir := func(t *testing.T, k int) string {
		dir := t.TempDir()
		fs := faultinject.NewFaultFS(nil, 11).CrashAt(k)
		c := labelstore.NewSharedCache()
		if store, err := durable.Open(dir, durable.Options{FS: fs, CheckpointEvery: 4}); err == nil {
			_ = c.EnableDurable(store)
		}
		crashScript(c)
		return dir
	}

	// First-crash op count, from a fault-free probe of the workload.
	probe := faultinject.NewFaultFS(nil, 11)
	{
		store, err := durable.Open(t.TempDir(), durable.Options{FS: probe, CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		c := labelstore.NewSharedCache()
		if err := c.EnableDurable(store); err != nil {
			t.Fatal(err)
		}
		crashScript(c)
		store.Close()
	}
	ops := probe.Stats().Ops

	doubles := 0
	for k := 0; k < ops; k++ {
		// How many mutating ops does recovering THIS crash's damage take?
		// Zero means the crash left nothing to repair — no second crash
		// window exists.
		rp := faultinject.NewFaultFS(nil, 17)
		if s, err := durable.Open(tornDir(t, k), durable.Options{FS: rp}); err == nil {
			s.Close()
		}
		recOps := rp.Stats().Ops

		for j := 0; j < recOps; j++ {
			dir := tornDir(t, k)
			// Crash during recovery.
			if s, err := durable.Open(dir, durable.Options{FS: faultinject.NewFaultFS(nil, 17).CrashAt(j)}); err == nil {
				s.Close()
			}
			// Final clean recovery.
			recovered, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatalf("crash@%d, recovery-crash@%d: final recovery failed: %v", k, j, err)
			}
			m, v := recovered.Recovered()
			if v > final {
				t.Fatalf("crash@%d, recovery-crash@%d: version %d beyond history end", k, j, v)
			}
			if got := flatten(m); !reflect.DeepEqual(got, expected[v]) {
				t.Fatalf("crash@%d, recovery-crash@%d: state at recovered version %d inconsistent", k, j, v)
			}
			if !observed[v] {
				t.Fatalf("crash@%d, recovery-crash@%d: recovered version %d, which no Publish or TightenPolicy returned", k, j, v)
			}
			recovered.Close()
			doubles++
		}
	}
	if doubles == 0 {
		t.Fatal("no crash point left recovery work to double-crash; harness is vacuous")
	}
}

// snapshotOf grabs the cache's current map (a snapshot never evicts,
// so reading it leaves the cache's state as it was).
func snapshotOf(c *labelstore.SharedCache) labelstore.Map {
	m, _ := c.Snapshot()
	return m
}

// TestCrashRecoveryGoldenDeterminism is the full-stack clause of the
// determinism contract: a serving process publishes query labels
// durably, "crashes" (store closed and forgotten), and a fresh process
// recovers the cache — the next query must be bit-identical, results
// AND simulated charges, to the same query on a process that never
// crashed, at every worker count.
func TestCrashRecoveryGoldenDeterminism(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	for _, procs := range []int{1, 2, 8} {
		warm1, warm2, probe := smallCfg(5), smallCfg(8), smallCfg(3)
		warm1.Procs, warm2.Procs, probe.Procs = procs, procs, procs

		// Reference: no crash, one private session runs all three.
		ref, err := NewSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Query(warm1); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Query(warm2); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(probe)
		if err != nil {
			t.Fatal(err)
		}

		// Crash run: session A persists the warmup labels, the process
		// dies, session B (a fresh cache) recovers them from disk.
		dir := t.TempDir() + "/wal"
		a, err := NewSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.EnableDurable(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Query(warm1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Query(warm2); err != nil {
			t.Fatal(err)
		}
		if err := a.DurableErr(); err != nil {
			t.Fatal(err)
		}
		closeDurableForTest(dir) // the crash

		b, err := NewSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.EnableDurable(dir); err != nil {
			t.Fatal(err)
		}
		if b.CacheVersion() != a.CacheVersion() || b.CachedLabels() != a.CachedLabels() {
			t.Fatalf("procs=%d: recovered cache v%d/%d labels, pre-crash v%d/%d",
				procs, b.CacheVersion(), b.CachedLabels(), a.CacheVersion(), a.CachedLabels())
		}
		got, err := b.Query(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(goldenOf(got), goldenOf(want)) {
			t.Fatalf("procs=%d: post-recovery query diverged from the uncrashed run:\n got %+v\nwant %+v",
				procs, goldenOf(got), goldenOf(want))
		}
		closeDurableForTest(dir)
	}
}
