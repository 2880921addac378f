package main

import (
	"errors"
	"fmt"
	"testing"

	"github.com/everest-project/everest/internal/video"
)

// TestErrorLineOnePrefix: fatal prints every error under exactly one
// "everest: " prefix — a library error keeps the one it carries, and an
// error the CLI made, or one from a lower package, gains it.
func TestErrorLineOnePrefix(t *testing.T) {
	_, unknownDataset := video.DatasetByName("Nowhere")
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"library", errors.New("everest: K=5000 exceeds relation size 531"), "everest: K=5000 exceeds relation size 531"},
		{"cli", fmt.Errorf("unknown UDF %q", "sum"), `everest: unknown UDF "sum"`},
		{"video", unknownDataset, `everest: video: unknown dataset "Nowhere"`},
	} {
		if got := errorLine(c.err); got != c.want {
			t.Errorf("%s error: fatal prints %q, want %q", c.name, got, c.want)
		}
	}
}
