package everest_test

import (
	"runtime"
	"slices"
	"testing"
)

// TestSegmentCloseAllocationFlat: a segment close allocates what the
// segment adds, not what the stream holds. Over 100 closes of 600-frame
// segments with a frame and a window follower (closeStream), the median
// bytes a close allocates at closes 91–100 stay within twice the median
// at closes 11–20. Copying the D0 memo — the frame-score table, the
// frame relation and a freshly prepared base — at every close made the
// ratio about 4.3.
func TestSegmentCloseAllocationFlat(t *testing.T) {
	const closes = 100
	g := closeStream(t, closes)
	defer g.Close()
	perClose := make([]uint64, closes)
	var ms runtime.MemStats
	for i := range perClose {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := g.Append(closeSegmentFrames); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		perClose[i] = ms.TotalAlloc - before
	}
	if got := g.Stats().Segments; got != closes {
		t.Fatalf("%d segments closed, want %d", got, closes)
	}
	median := func(s []uint64) uint64 {
		s = slices.Clone(s)
		slices.Sort(s)
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	early, late := median(perClose[10:20]), median(perClose[90:100])
	t.Logf("median bytes per close: %d at closes 11–20, %d at closes 91–100 (%.2f×)", early, late, float64(late)/float64(early))
	if late > 2*early {
		t.Fatalf("a close allocates %d bytes at closes 91–100, %.2f× the %d at closes 11–20 (want ≤ 2×)", late, float64(late)/float64(early), early)
	}
}
