package labelstore

import "testing"

// FuzzCachePolicy drives a SharedCache through random sequences of
// Publish, TightenPolicy and Snapshot and checks the eviction policy's
// invariants after every operation:
//
//   - the governed-label count is within the cap whenever more than one
//     batch is logged;
//   - every key of the newest publish is present;
//   - a label published before the first cap, and never re-published
//     after it, is never removed;
//   - Snapshot never changes the version (or the map);
//   - each non-empty publish and each eviction pass bumps the version by
//     exactly 1.
//
// Encoding: each operation is a header byte h. h&3 == 0 publishes the
// next h>>2&7 bytes as keys (mod 32); h&3 == 1 tightens to a cap of
// h>>2%10 − 2 (zero and negative caps included); otherwise it
// snapshots.
func FuzzCachePolicy(f *testing.F) {
	// A cap smaller than one batch: only the newest batch survives.
	f.Add([]byte{1 | 3<<2, 0 | 4<<2, 1, 2, 3, 4, 0 | 4<<2, 5, 6, 7, 8, 2})
	// Pre-cap labels followed by a cap below their count.
	f.Add([]byte{0 | 5<<2, 1, 2, 3, 4, 5, 1 | 4<<2, 0 | 2<<2, 10, 11, 0 | 2<<2, 12, 13, 2, 1 | 3<<2, 2})
	// A re-published frame outlives its first batch, and a pre-cap frame
	// re-published under the cap becomes evictable.
	f.Add([]byte{0 | 1<<2, 9, 1 | 4<<2, 0 | 2<<2, 1, 9, 0 | 2<<2, 2, 3, 0 | 2<<2, 4, 5, 2, 1 | 3<<2})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewSharedCache()
		values := make(map[int]float64) // every key ever published → its newest score
		protected := make(map[int]bool) // published before the first cap, not since
		var newest []int                // keys of the newest non-empty publish
		limit := 0                      // the strictest positive cap installed
		for step := 0; len(data) > 0; step++ {
			h := data[0]
			data = data[1:]
			before, vBefore := c.labels, c.version
			switch h & 3 {
			case 0:
				n := min(int(h>>2&7), len(data))
				fresh := make(map[int]float64, n)
				for _, b := range data[:n] {
					k := int(b % 32)
					fresh[k] = float64(step) + float64(k)/64
				}
				data = data[n:]
				c.Publish(fresh)
				if len(fresh) == 0 {
					if c.version != vBefore || c.labels.Len() != before.Len() {
						t.Fatalf("step %d: empty publish moved v%d → v%d", step, vBefore, c.version)
					}
					break
				}
				added := 0
				newest = newest[:0]
				for k, v := range fresh {
					if _, ok := before.Get(k); !ok {
						added++
					}
					values[k] = v
					newest = append(newest, k)
					if limit > 0 {
						delete(protected, k)
					} else {
						protected[k] = true
					}
				}
				removed := before.Len() + added - c.labels.Len()
				want := vBefore + 1
				if removed > 0 {
					want++
				}
				if removed < 0 || c.version != want {
					t.Fatalf("step %d: publish removed %d labels and moved v%d → v%d, want v%d",
						step, removed, vBefore, c.version, want)
				}
			case 1:
				p := Policy{MaxLabels: int(h>>2%10) - 2}
				if p.MaxLabels > 0 && (limit == 0 || p.MaxLabels < limit) {
					limit = p.MaxLabels
				}
				if got := c.TightenPolicy(p); got != (Policy{MaxLabels: limit}) {
					t.Fatalf("step %d: TightenPolicy(%+v) = %+v, want cap %d", step, p, got, limit)
				}
				removed := before.Len() - c.labels.Len()
				want := vBefore
				if removed > 0 {
					want++
				}
				if removed < 0 || c.version != want {
					t.Fatalf("step %d: tightening removed %d labels and moved v%d → v%d, want v%d",
						step, removed, vBefore, c.version, want)
				}
			default:
				m, v := c.Snapshot()
				if v != vBefore || c.version != vBefore {
					t.Fatalf("step %d: Snapshot moved v%d → v%d (returned v%d)", step, vBefore, c.version, v)
				}
				if m.root != before.root || m.Len() != before.Len() {
					t.Fatalf("step %d: Snapshot changed the map", step)
				}
			}

			if len(c.pubs) > 1 && len(c.lastPub) > c.policy.MaxLabels {
				t.Fatalf("step %d: %d governed labels over cap %d with %d batches logged",
					step, len(c.lastPub), c.policy.MaxLabels, len(c.pubs))
			}
			for _, k := range newest {
				if _, ok := c.labels.Get(k); !ok {
					t.Fatalf("step %d: newest publish's key %d is gone", step, k)
				}
			}
			for k := range protected {
				if _, ok := c.labels.Get(k); !ok {
					t.Fatalf("step %d: pre-cap label %d was removed", step, k)
				}
			}
			c.labels.Range(func(k int, v float64) bool {
				if want, ok := values[k]; !ok || v != want {
					t.Fatalf("step %d: label %d holds %v, want its newest publish %v", step, k, v, want)
				}
				return true
			})
		}
	})
}
