package labelstore

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// publishBatches draws n publish batches of up to size distinct frames
// in [0, frames), the shape serve_shared's groups publish.
func publishBatches(seed int64, n, size, frames int) []map[int]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]map[int]float64, n)
	for i := range out {
		out[i] = make(map[int]float64, size)
		for j := 0; j < size; j++ {
			out[i][rng.Intn(frames)] = float64(i)
		}
	}
	return out
}

// pathNodes counts the distinct trie nodes on the root→leaf paths of
// keys in a trie of the given depth: what one batch must path-copy.
func pathNodes(keys []int, depth int) int {
	n := 0
	for d := 1; d <= depth+1; d++ {
		seen := make(map[int]bool)
		for _, f := range keys {
			seen[f>>(bitsPerLevel*d)] = true
		}
		n += len(seen)
	}
	return n
}

// TestPublishAllocationBudget pins the batch write path: on a 4,000-frame
// cache capped at 400 labels, a ~96-frame publish plus the eviction it
// triggers allocates one node per trie node the two batches touch, plus
// a few slices of bookkeeping — not one root→leaf path per label. A
// twin cache replays the same publishes to count the touched nodes. A
// copied leaf holds only its labels, one to five here, so the pair
// allocates under 16 KB (14.9 KB measured; leaves of 32 slots took
// 47.0 KB).
func TestPublishAllocationBudget(t *testing.T) {
	const runs, warm = 50, 20
	batches := publishBatches(3, warm+runs+1, 96, 4000)
	newCache := func() *SharedCache {
		c := NewSharedCache()
		c.TightenPolicy(Policy{MaxLabels: 400})
		for _, b := range batches[:warm] {
			c.Publish(b)
		}
		return c
	}

	twin := newCache()
	touched := 0
	for i, b := range batches[warm:] {
		before := twin.labels
		twin.Publish(b)
		keys := make([]int, 0, len(b))
		for f := range b {
			keys = append(keys, f)
		}
		var removed []int
		for _, f := range append(keys, keysOf(before)...) {
			if _, ok := twin.labels.Get(f); !ok {
				removed = append(removed, f)
			}
		}
		sort.Ints(removed)
		removed = compact(removed)
		if len(removed) == 0 {
			t.Fatalf("publish %d evicted nothing; the budget must cover an eviction", i)
		}
		if i > 0 { // AllocsPerRun does not count its warm-up call
			touched += pathNodes(keys, twin.labels.depth) + pathNodes(removed, twin.labels.depth)
		}
	}

	c := newCache()
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		c.Publish(batches[next])
		next++
	})
	c = newCache()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches[warm : warm+runs] {
		c.Publish(b)
	}
	runtime.ReadMemStats(&after)
	if perPub := float64(after.TotalAlloc-before.TotalAlloc) / runs; perPub >= 16<<10 {
		t.Fatalf("publish+evict allocated %.0f B, budget 16 KB", perPub)
	}
	nodes := float64(touched) / runs
	// Bookkeeping per publish: the sorted key and score slices, the
	// evicted-frame list and the publish log's amortized growth —
	// measured at 3.2 over the node count.
	const bookkeeping = 4
	t.Logf("%.1f allocs per publish+evict, %.1f touched nodes", allocs, nodes)
	if allocs > nodes+bookkeeping {
		t.Fatalf("publish+evict allocated %.1f times, budget %.1f (%.1f touched nodes + %d)",
			allocs, nodes+bookkeeping, nodes, bookkeeping)
	}
}

func keysOf(m Map) []int {
	var out []int
	m.Range(func(f int, _ float64) bool {
		out = append(out, f)
		return true
	})
	return out
}

func compact(sorted []int) []int {
	out := sorted[:0]
	for i, f := range sorted {
		if i == 0 || f != sorted[i-1] {
			out = append(out, f)
		}
	}
	return out
}
