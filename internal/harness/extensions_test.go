package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestScaleoutScalabilityShape(t *testing.T) {
	rows, err := ScaleoutScalability(Scale{Frames: 4000, Seed: 21}, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (P ∈ {1,2,4,8})", len(rows))
	}
	if rows[0].Workers != 1 || rows[0].ScaleEfficiency != 1 {
		t.Fatalf("P=1 row must be the efficiency reference: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Quality.Precision < 0.7 {
			t.Fatalf("P=%d: precision %.2f below guarantee expectation", r.Workers, r.Quality.Precision)
		}
		if r.Workers > 1 {
			// Scale-out never shrinks the bill (per-shard floors), and a
			// worker's wall is never above the serial wall.
			if r.BillMS < rows[0].BillMS*0.9 {
				t.Fatalf("P=%d: bill %.0f implausibly below serial %.0f", r.Workers, r.BillMS, rows[0].BillMS)
			}
			if r.WallMS > rows[0].WallMS*1.05 {
				t.Fatalf("P=%d: wall %.0f above serial %.0f", r.Workers, r.WallMS, rows[0].WallMS)
			}
		}
	}
	var buf bytes.Buffer
	WriteScaleRows(&buf, rows)
	if !strings.Contains(buf.String(), "workers") {
		t.Fatal("WriteScaleRows output incomplete")
	}
}

func TestSessionAmortizationShape(t *testing.T) {
	rows, err := SessionAmortization(Scale{Frames: 4000, Seed: 23}, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5 session steps", len(rows))
	}
	byName := map[string]SessionRow{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	rep, ok := byName["repeat"]
	if !ok {
		t.Fatalf("no repeat step in %v", rows)
	}
	if rep.Cleaned != 0 {
		t.Fatalf("repeated query cleaned %d frames, want 0", rep.Cleaned)
	}
	if rep.SessionMS > rep.AloneMS {
		t.Fatalf("repeat in session (%.0f ms) costs more than alone (%.0f ms)", rep.SessionMS, rep.AloneMS)
	}
	// Cache only grows along the session.
	for i := 1; i < len(rows); i++ {
		if rows[i].CacheSize < rows[i-1].CacheSize {
			t.Fatalf("cache shrank: %d -> %d at step %s", rows[i-1].CacheSize, rows[i].CacheSize, rows[i].Query)
		}
	}
	var buf bytes.Buffer
	WriteSessionRows(&buf, rows)
	if !strings.Contains(buf.String(), "session-ms") {
		t.Fatal("WriteSessionRows output incomplete")
	}
}

func TestSlidingWindowsShape(t *testing.T) {
	rows, err := SlidingWindows(Scale{Frames: 4000, Seed: 25}, 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 variants", len(rows))
	}
	if rows[0].Bound != "independent" {
		t.Fatalf("tumbling must use the exact bound, got %s", rows[0].Bound)
	}
	for _, r := range rows[1:] {
		if r.Bound != "union" {
			t.Fatalf("overlapping variant %s must use the union bound, got %s", r.Variant, r.Bound)
		}
		if r.Windows <= rows[0].Windows {
			t.Fatalf("overlap should multiply the windows: %s has %d ≤ tumbling %d",
				r.Variant, r.Windows, rows[0].Windows)
		}
	}
	var buf bytes.Buffer
	WriteSlidingRows(&buf, rows)
	if !strings.Contains(buf.String(), "bound") {
		t.Fatal("WriteSlidingRows output incomplete")
	}
}

func TestAblationBoundShape(t *testing.T) {
	rows, err := AblationBound(Scale{Frames: 4000, Seed: 27}, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	// Conservative bound cannot be cheaper than the exact product.
	if rows[1].MS < rows[0].MS-1e-9 {
		t.Fatalf("union bound (%.0f ms) below exact (%.0f ms)", rows[1].MS, rows[0].MS)
	}
	for _, r := range rows {
		if r.Quality.Precision < 0.7 {
			t.Fatalf("%s: precision %.2f", r.Variant, r.Quality.Precision)
		}
	}
}
