package labelstore

import "testing"

// TestTightenPolicyStrictestWins pins the merge algebra TightenPolicy
// gives a shared cache: a positive cap only ever tightens, a zero or
// negative one never touches a sibling's bound, and the merge commutes
// — any arrival order of conflicting installs lands on the minimum.
func TestTightenPolicyStrictestWins(t *testing.T) {
	steps := []struct {
		install Policy
		want    Policy
	}{
		// The zero policy on a fresh cache is a pure read.
		{Policy{}, Policy{}},
		// First writer installs the cap.
		{Policy{MaxLabels: 100}, Policy{MaxLabels: 100}},
		// A tighter cap wins.
		{Policy{MaxLabels: 5}, Policy{MaxLabels: 5}},
		// A looser cap changes nothing.
		{Policy{MaxLabels: 500}, Policy{MaxLabels: 5}},
		// A zero cap never erases the installed one.
		{Policy{}, Policy{MaxLabels: 5}},
		// Nor does a negative one: there is no reset.
		{Policy{MaxLabels: -1}, Policy{MaxLabels: 5}},
		// A still tighter cap gets through after all of the above.
		{Policy{MaxLabels: 3}, Policy{MaxLabels: 3}},
	}
	c := NewSharedCache()
	for i, s := range steps {
		if got := c.TightenPolicy(s.install); got != s.want {
			t.Fatalf("step %d: installing %+v yielded %+v, want %+v", i, s.install, got, s.want)
		}
	}

	// Commutativity: the reverse install order converges on the same
	// effective policy.
	r := NewSharedCache()
	for i := len(steps) - 1; i >= 0; i-- {
		r.TightenPolicy(steps[i].install)
	}
	if got, want := r.TightenPolicy(Policy{}), steps[len(steps)-1].want; got != want {
		t.Fatalf("reverse install order yielded %+v, want %+v", got, want)
	}
}

// TestTightenPolicyEvicts checks that tightening applies immediately:
// a cap installed below the cache's logged label count evicts the
// oldest batches right away, as a publish over the cap would.
func TestTightenPolicyEvicts(t *testing.T) {
	c := NewSharedCache()
	c.TightenPolicy(Policy{MaxLabels: 100}) // start logging batches
	c.Publish(map[int]float64{1: 1, 2: 2})
	c.Publish(map[int]float64{3: 3, 4: 4})
	if c.Len() != 4 {
		t.Fatalf("setup: cache holds %d labels, want 4", c.Len())
	}
	c.TightenPolicy(Policy{MaxLabels: 2})
	if c.Len() != 2 {
		t.Fatalf("tightening to 2 left %d labels", c.Len())
	}
}

// TestEvictionOnlyOnStateChange checks that the cap is enforced only
// when the cache's state changes: reads (Snapshot, Version) and installs
// that do not tighten leave the version and the labels as they were.
func TestEvictionOnlyOnStateChange(t *testing.T) {
	c := NewSharedCache()
	c.TightenPolicy(Policy{MaxLabels: 2})
	c.Publish(map[int]float64{1: 1, 2: 2})
	c.Publish(map[int]float64{3: 3, 4: 4})
	m, v := c.Snapshot()
	if m.Len() != 2 {
		t.Fatalf("publish over the cap left %d labels, want 2", m.Len())
	}
	for i := 0; i < 3; i++ {
		if _, got := c.Snapshot(); got != v {
			t.Fatalf("Snapshot %d moved the version %d → %d", i, v, got)
		}
	}
	for _, p := range []Policy{{}, {MaxLabels: -1}, {MaxLabels: 2}, {MaxLabels: 50}} {
		c.TightenPolicy(p)
		if got := c.Version(); got != v {
			t.Fatalf("installing %+v moved the version %d → %d", p, v, got)
		}
	}
	if got, _ := c.Snapshot(); got.Len() != 2 {
		t.Fatalf("non-tightening installs left %d labels, want 2", got.Len())
	}
}
