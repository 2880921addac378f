package video

import "fmt"

// SliceSource is a contiguous view [Lo, Hi) of an underlying Source,
// re-indexed from zero. It is how the scale-out executor shards a video:
// each worker runs Phase 1 over one slice while the underlying frames are
// rendered by the parent source, so slicing costs nothing.
type SliceSource struct {
	src    Source
	lo, hi int
}

// Slice returns the view of src covering frames [lo, hi).
func Slice(src Source, lo, hi int) (*SliceSource, error) {
	if src == nil {
		return nil, fmt.Errorf("video: nil source")
	}
	if lo < 0 || hi > src.NumFrames() || lo >= hi {
		return nil, fmt.Errorf("video: invalid slice [%d, %d) of %d frames", lo, hi, src.NumFrames())
	}
	return &SliceSource{src: src, lo: lo, hi: hi}, nil
}

// PrefixSource is the view of a feed at an earlier point in time: the
// same camera (same Name), only the first n frames visible. It models the
// append-only growth of a continuously recording camera, which is what
// Index.Extend ingests incrementally.
type PrefixSource struct {
	SliceSource
}

// Prefix returns the first n frames of src under src's own name.
func Prefix(src Source, n int) (*PrefixSource, error) {
	sl, err := Slice(src, 0, n)
	if err != nil {
		return nil, err
	}
	return &PrefixSource{SliceSource: *sl}, nil
}

// Name identifies the feed, not the truncation: a prefix is the same
// camera observed earlier.
func (p *PrefixSource) Name() string { return p.src.Name() }

// Name identifies the slice.
func (s *SliceSource) Name() string {
	return fmt.Sprintf("%s[%d:%d)", s.src.Name(), s.lo, s.hi)
}

// NumFrames is the slice length.
func (s *SliceSource) NumFrames() int { return s.hi - s.lo }

// FPS delegates to the parent.
func (s *SliceSource) FPS() int { return s.src.FPS() }

// TargetClass delegates to the parent.
func (s *SliceSource) TargetClass() string { return s.src.TargetClass() }

// Lo returns the slice's start frame in parent coordinates.
func (s *SliceSource) Lo() int { return s.lo }

// Scene returns the ground truth of slice frame i (parent frame Lo+i).
func (s *SliceSource) Scene(i int) Scene { return s.src.Scene(s.check(i)) }

// CountObjects counts class in slice frame i (parent frame Lo+i).
func (s *SliceSource) CountObjects(i int, class string) int {
	return s.src.CountObjects(s.check(i), class)
}

// Render decodes slice frame i (parent frame Lo+i).
func (s *SliceSource) Render(i int) Frame {
	f := s.src.Render(s.check(i))
	f.Index = i
	return f
}

// Resolution delegates to the parent.
func (s *SliceSource) Resolution() (w, h int) { return s.src.Resolution() }

func (s *SliceSource) check(i int) int {
	if i < 0 || i >= s.hi-s.lo {
		panic(fmt.Sprintf("video: slice frame %d out of [0, %d)", i, s.hi-s.lo))
	}
	return s.lo + i
}
