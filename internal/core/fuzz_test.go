package core

import (
	"slices"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// FuzzStartOverrides: Start under a random relation and a random mix of
// certain, uncertain, duplicate, out-of-range and mismatched overrides —
// with the run relation the base's (nil), a copy, or a copy of another
// length — returns an error exactly when the input is malformed.
// Otherwise the run is bit-identical to Prepare + Start with no override
// over the materialized relation, and the selector picks, under the
// overrides, the batches referenceSelector picks, with the same stats
// and select charges. Either way the base serves an uncached run
// unchanged afterwards.
//
// ops is read three bytes at a time: an override kind, a position and a
// parameter. flags holds the bound (bit 0), a nil run relation (bit 1),
// a run relation of another length (bit 2; bit 3 picks shorter) and the
// number of certain base tuples (the rest).
func FuzzStartOverrides(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(0x10), []byte{0, 3, 7, 1, 12, 2})
	f.Add(uint64(2), uint8(50), uint8(0x41), []byte{1, 10, 0, 1, 2, 4, 0, 20, 9, 2, 30, 0})
	f.Add(uint64(3), uint8(20), uint8(0x20), []byte{2, 5, 1, 3, 6, 0, 4, 1, 1, 5, 4, 2, 6, 8, 0, 7, 0, 0})
	f.Add(uint64(4), uint8(40), uint8(0x32), []byte{0, 1, 1, 0, 2, 2, 2, 3, 0})
	f.Add(uint64(5), uint8(25), uint8(0x84), []byte{1, 4, 9})
	f.Fuzz(func(t *testing.T, seed uint64, size, flags uint8, ops []byte) {
		r := xrand.New(seed)
		n := 2 + int(size)%60
		base, oracle := randomRelation(r, n, int(flags>>4)*n/15, 5, 10)
		bound := BoundKind(flags & 1)
		b, err := Prepare(base, bound)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{K: 1 + int(seed%uint64(n)), Threshold: 0.9, BatchSize: 3, Bound: bound}
		uncached := func() string {
			clock := simclock.NewClock()
			e, err := b.Start(cfg, nil, nil, oracle, clock, simclock.Default())
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			return runKey(res, err, clock)
		}
		before := uncached()

		runRel := slices.Clone(base)
		var over []overridePair
		for i := 0; i+2 < len(ops); i += 3 {
			kind, pos, arg := ops[i]%8, int(ops[i+1])%n, int(ops[i+2])
			level := arg%20 - 5
			switch kind {
			case 0: // a point mass
				over = append(over, overridePair{pos, uncertain.Certain(level)})
			case 1: // a new distribution, in place in the run relation
				runRel[pos].Dist = randomDist(r, level)
				over = append(over, overridePair{pos, runRel[pos].Dist})
			case 2: // whatever the run relation holds at pos now
				over = append(over, overridePair{pos, runRel[pos].Dist})
			case 3: // a new distribution the run relation does not hold
				over = append(over, overridePair{pos, randomDist(r, level)})
			case 4: // empty
				over = append(over, overridePair{pos, uncertain.Dist{}})
			case 5: // outside the base
				pos = n + arg/2
				if arg%2 == 1 {
					pos = -1 - arg/2
				}
				over = append(over, overridePair{pos, uncertain.Certain(level)})
			case 6: // a new distribution in place, under another ID
				runRel[pos].ID += n + 1
				runRel[pos].Dist = randomDist(r, level)
				over = append(over, overridePair{pos, runRel[pos].Dist})
			case 7: // a position already overridden, again
				if len(over) > 0 {
					pos = over[arg%len(over)].pos
				}
				over = append(over, overridePair{pos, uncertain.Certain(level)})
			}
		}
		switch {
		case flags&2 != 0:
			runRel = nil
		case flags&4 != 0 && flags&8 != 0:
			runRel = runRel[:n-1]
		case flags&4 != 0:
			runRel = append(runRel, uncertain.XTuple{ID: 2 * n, Dist: uncertain.Certain(0)})
		}

		// The contract, restated: what Start must reject.
		rel := runRel
		if rel == nil {
			rel = base
		}
		malformed := len(rel) != n
		seen := make(map[int]bool)
		for _, o := range over {
			if malformed {
				break
			}
			switch {
			case o.pos < 0 || o.pos >= n || len(o.d.P) == 0 || seen[o.pos]:
				malformed = true
			case !o.d.IsCertain():
				malformed = rel[o.pos].ID != base[o.pos].ID || !sameTable(rel[o.pos].Dist, o.d)
			}
			seen[o.pos] = true
		}

		clock := simclock.NewClock()
		e, err := b.Start(cfg, runRel, pairs(over...), oracle, clock, simclock.Default())
		if (err != nil) != malformed {
			t.Fatalf("malformed %v, Start error %v", malformed, err)
		}
		if err == nil {
			res, err := e.Run()
			got := runKey(res, err, clock)
			mat := slices.Clone(base)
			for _, o := range over {
				mat[o.pos].Dist = o.d
			}
			want := run(t, func(clock *simclock.Clock) (*Engine, error) {
				return newEngine(mat, cfg, oracle, clock, simclock.Default())
			})
			if got != want {
				t.Fatalf("run under overrides:\n got %s\nwant %s", got, want)
			}
			if _, diff := againstReference(t, func(clock *simclock.Clock) (*Engine, error) {
				return b.Start(cfg, runRel, pairs(over...), oracle, clock, simclock.Default())
			}, nil); diff != "" {
				t.Fatalf("the selector under overrides against the reference: %s", diff)
			}
		}
		if after := uncached(); after != before {
			t.Fatalf("after Start, an uncached run differs:\n got %s\nwant %s", after, before)
		}
	})
}
