package video

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_render.json from the current renderer's output")

const goldenRenderPath = "testdata/golden_render.json"

// goldenRenderFrames are the pinned frames of a 3000-frame build: the
// first frames, both sides of a difference-detector clip and of an
// event-index chunk boundary, and late frames where camera drift has
// accumulated.
var goldenRenderFrames = []int{0, 1, 2, 29, 30, 255, 256, 257, 1000, 1777, 2999}

// goldenRenderSizes are the pinned resolutions: the default, and a
// non-square one that a transposed width/height would not survive.
var goldenRenderSizes = [][2]int{{64, 64}, {48, 32}}

// pixHash hashes the exact bit patterns of a frame's pixels.
func pixHash(f Frame) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range f.Pix {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// renderHashes renders the pinned frames of every Table 7 dataset
// (static, drifting and dashcam cameras) at every pinned resolution:
// "<dataset>/<w>x<h>" → one pixel hash per pinned frame.
func renderHashes(t *testing.T) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, spec := range Datasets() {
		for _, wh := range goldenRenderSizes {
			cfg := spec.Config
			cfg.Frames = 3000
			cfg.W, cfg.H = wh[0], wh[1]
			s, err := NewSynthetic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hashes := make([]string, len(goldenRenderFrames))
			for k, i := range goldenRenderFrames {
				f := s.Render(i)
				if f.Index != i || f.W != wh[0] || f.H != wh[1] || len(f.Pix) != wh[0]*wh[1] {
					t.Fatalf("%s frame %d: header %d %dx%d with %d pixels", spec.Name, i, f.Index, f.W, f.H, len(f.Pix))
				}
				hashes[k] = pixHash(f)
				f.Release() // later frames land in recycled buffers
			}
			out[fmt.Sprintf("%s/%dx%d", spec.Name, wh[0], wh[1])] = hashes
		}
	}
	return out
}

// readGoldenRender loads the committed hashes.
func readGoldenRender(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(goldenRenderPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRenderGolden pins the renderer's pixels bit for bit: every
// downstream golden (difference detector, CMDN features, Top-K
// answers) is a function of them, and a renderer optimization must not
// move a single bit. Regenerate with -update-golden only for a
// deliberate change of the synthetic footage.
func TestRenderGolden(t *testing.T) {
	got := renderHashes(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRenderPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldenRender(t)
	if len(got) != len(want) {
		t.Fatalf("%d pinned configurations, golden has %d", len(got), len(want))
	}
	for name, hashes := range got {
		if !reflect.DeepEqual(hashes, want[name]) {
			t.Errorf("%s: pixel hashes of frames %v\n got  %v\n want %v", name, goldenRenderFrames, hashes, want[name])
		}
	}
}
