package everest

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Index is a precomputed Phase 1 artifact: the difference-detector
// structure plus, per retained frame, either the exact oracle label or the
// CMDN's score mixture. The paper observes (§4.2) that "Phase 1 can be
// done offline during data ingestion (e.g., Focus [32]) or even at the
// edge"; an Index is that ingestion product. Once built, any number of
// Top-K and Top-K-window queries — different K, thres, window size — run
// Phase 2 only, paying no sampling, training, decoding or proxy-inference
// cost.
//
// An Index is the public wrapper of the engine's ingest Artifact: every
// query against it compiles to an engine.Plan and executes on the one
// shared pipeline. It is tied to one (video, UDF) pair and can be
// persisted with Save and restored with LoadIndex.
type Index struct {
	art      *engine.Artifact
	info     Phase1Info
	ingestMS float64
}

// Close releases nothing: an index holds no goroutine between calls.
// It remains only for the benchmark driver, which still calls it.
func (ix *Index) Close() {}

// Dataset returns the indexed video's name.
func (ix *Index) Dataset() string { return ix.art.Dataset }

// UDFName returns the indexed scoring function's name.
func (ix *Index) UDFName() string { return ix.art.UDFName }

// IngestMS returns the simulated one-off ingestion cost (Phase 1).
func (ix *Index) IngestMS() float64 { return ix.ingestMS }

// Info returns the Phase 1 statistics captured at ingestion.
func (ix *Index) Info() Phase1Info { return ix.info }

// CertainFrames reports how many frames the index already holds exact
// oracle scores for. These enter Phase 2 certain and are never cleaned
// again — a planner subtracts them from the uncertain-relation estimate.
func (ix *Index) CertainFrames() int { return len(ix.art.Exact) }

// BuildIndex runs the engine's Ingest stage once and captures its
// outputs for reuse.
func BuildIndex(src video.Source, udf vision.UDF, cfg Config) (*Index, error) {
	if src == nil || udf == nil {
		return nil, errors.New("everest: nil source or UDF")
	}
	clock := simclock.NewClock()
	art, err := engine.Ingest(src, udf, cfg.Plan().Ingest, clock)
	if err != nil {
		return nil, fmt.Errorf("everest: building index: %w", err)
	}
	return &Index{
		art:      art,
		info:     phase1InfoOf(art.Info),
		ingestMS: clock.TotalMS(),
	}, nil
}

// Query runs Phase 2 against the index. The source and UDF must be the
// ones the index was built from; only Phase 2 costs are charged.
func (ix *Index) Query(src video.Source, udf vision.UDF, cfg Config) (*Result, error) {
	return ix.QueryCtx(context.Background(), src, udf, cfg)
}

// QueryCtx is Query with a cancellable context: a cancelled ctx stops
// the Phase 2 loop and returns ctx.Err(). Cancellation never degrades —
// Config.DegradedOK applies to oracle failures and deadlines only. It
// is the uncached path: nothing is reused or recorded, and every oracle
// confirmation is charged.
func (ix *Index) QueryCtx(ctx context.Context, src video.Source, udf vision.UDF, cfg Config) (*Result, error) {
	plan, binding, err := ix.planFor(src, udf, cfg)
	if err != nil {
		return nil, err
	}
	binding.Ctx = ctx
	out, err := engine.Execute(plan, binding)
	if err != nil {
		return nil, err
	}
	return resultOf(out, plan, ix.info), nil
}

// validateFor checks that (src, udf) is what the index was built from.
func (ix *Index) validateFor(src video.Source, udf vision.UDF) error {
	return ix.art.ValidateFor(src, udf)
}

// planFor compiles cfg into a validated engine plan plus the binding to
// this index — the shared front half of every indexed query path
// (Query and Session.QueryBatchCtx).
func (ix *Index) planFor(src video.Source, udf vision.UDF, cfg Config) (engine.Plan, engine.Binding, error) {
	if err := ix.validateFor(src, udf); err != nil {
		return engine.Plan{}, engine.Binding{}, err
	}
	plan, err := engine.NewPlan(cfg.Plan())
	if err != nil {
		return engine.Plan{}, engine.Binding{}, err
	}
	if err := plan.ValidateFor(ix.art.TotalFrames); err != nil {
		return engine.Plan{}, engine.Binding{}, err
	}
	return plan, engine.Binding{Src: src, UDF: udf, Artifact: ix.art}, nil
}

// indexCodec is the gob payload of format version 2: the artifact's
// positional tables as they are in memory, and its exact labels as two
// parallel slices in ascending frame order. No field is a map, so an
// index encodes to the same bytes every time it is saved.
type indexCodec struct {
	Dataset          string
	UDFName          string
	TotalFrames      int
	Retained         []int32
	RepOf            []int32
	RetainedMixtures []uncertain.Mixture
	ExactFrames      []int32
	ExactScores      []float64
	Info             Phase1Info
	IngestMS         float64
}

// Gob numbers the types a process encodes in the order it first meets
// them and writes the numbers into the stream. Meeting the payload's
// types at init gives them the same numbers in every process, whatever
// it encodes after init, so an index saves to the same bytes in any
// program that encodes no gob value before this package initializes.
func init() { _ = gob.NewEncoder(io.Discard).Encode(indexCodec{}) }

// indexCodecV1 holds what only a version 1 payload carries: its
// payload version, and the exact labels and mixtures as maps keyed by
// frame. Gob matches fields by name, so a version 1 payload decodes into
// indexCodec for the fields both versions share and into indexCodecV1
// for these, which the loader converts to the positional form.
type indexCodecV1 struct {
	Version  int
	Exact    map[int32]float64
	Mixtures map[int32]uncertain.Mixture
}

// Index file wire format (Save / SaveFile):
//
//	8 bytes  magic "EVESTIDX" (identifies the file type)
//	uint32   format version (little-endian; 2 is written, 1 and 2 are read)
//	gob      indexCodec payload (version 1: indexCodec's shared fields
//	         and indexCodecV1's)
//	uint32   CRC32 (IEEE) of every preceding byte
//
// Version 2 is byte-stable: saving an index twice, or saving one just
// loaded, writes the same bytes. Version 1 files, whose payload held the
// exact labels and mixtures as gob maps (written in random order), still
// load and are converted on load; so are files from before the header
// existed, a bare version 1 gob stream that carries no checksum
// (corruption surfaces as a gob decode failure instead).
var indexMagic = [8]byte{'E', 'V', 'E', 'S', 'T', 'I', 'D', 'X'}

const indexFormatVersion = 2

// IndexFormatError is the typed failure of loading a persisted index:
// the bytes are not an index file, the header names a format this
// build does not speak, the checksum does not match, or the payload is
// corrupt (including malformed gob that would otherwise panic the
// decoder). errors.As extracts it from LoadIndex/LoadFile errors.
type IndexFormatError struct {
	// Path is the file being loaded ("" for stream loads).
	Path string
	// FormatVersion is the header's format version, when one was read
	// (0 for unversioned legacy files and unrecognized bytes).
	FormatVersion uint32
	// Reason says what failed.
	Reason string
	// Err is the underlying decode error, if any.
	Err error
}

// Error implements error.
func (e *IndexFormatError) Error() string {
	at := ""
	if e.Path != "" {
		at = " " + e.Path
	}
	msg := fmt.Sprintf("everest: index file%s: %s", at, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying decode error to errors.Is/As.
func (e *IndexFormatError) Unwrap() error { return e.Err }

// Save persists the index to w in the headered, checksummed wire
// format (magic, format version, gob payload, CRC32 trailer). The same
// index always saves to the same bytes.
func (ix *Index) Save(w io.Writer) error {
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], indexFormatVersion)
	buf.Write(ver[:])
	if err := gob.NewEncoder(&buf).Encode(ix.codec()); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(trailer[:])
	_, err := w.Write(buf.Bytes())
	return err
}

func (ix *Index) codec() indexCodec {
	frames := slices.Sorted(maps.Keys(ix.art.Exact))
	scores := make([]float64, len(frames))
	for i, f := range frames {
		scores[i] = ix.art.Exact[f]
	}
	return indexCodec{
		Dataset:          ix.art.Dataset,
		UDFName:          ix.art.UDFName,
		TotalFrames:      ix.art.TotalFrames,
		Retained:         ix.art.Retained,
		RepOf:            ix.art.RepOf,
		RetainedMixtures: ix.art.Mixtures,
		ExactFrames:      frames,
		ExactScores:      scores,
		Info:             ix.info,
		IngestMS:         ix.ingestMS,
	}
}

// SaveFile persists the index to path atomically: the bytes are
// written to a temp file, fsynced, renamed over path, and the
// directory fsynced — a crash mid-save leaves either the old file or
// the new one, never a torn mixture.
func (ix *Index) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("everest: saving index: %w", err)
	}
	_, werr := f.Write(buf.Bytes())
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("everest: saving index: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("everest: saving index: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadFile restores an index saved with SaveFile, by this build or an
// older one (format version 1, headered or not). Format failures are
// typed *IndexFormatError.
func LoadFile(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("everest: loading index: %w", err)
	}
	return decodeIndex(data, path)
}

// LoadIndex restores an index written by Save. Headered files, of
// format version 1 or 2, are checksum-verified; files from before the
// header existed (a bare gob stream) load through the unversioned
// compatibility path. Malformed input yields a typed *IndexFormatError
// — never a panic.
func LoadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("everest: reading index: %w", err)
	}
	return decodeIndex(data, "")
}

// decodeIndex sniffs the header and dispatches to the right decode
// path.
func decodeIndex(data []byte, path string) (*Index, error) {
	if len(data) < len(indexMagic) || string(data[:len(indexMagic)]) != string(indexMagic[:]) {
		// No magic: either a legacy unversioned index (pre-header bare
		// gob) or not an index at all. Try the compat path; report its
		// failure in terms of both possibilities.
		ix, err := decodeIndexGob(data, path, 0)
		if err != nil {
			return nil, &IndexFormatError{
				Path:   path,
				Reason: "no index header, and the bytes do not decode as an unversioned (pre-header) index either",
				Err:    errors.Unwrap(err),
			}
		}
		return ix, nil
	}
	if len(data) < len(indexMagic)+8 {
		return nil, &IndexFormatError{Path: path, Reason: "truncated index header"}
	}
	version := binary.LittleEndian.Uint32(data[len(indexMagic):])
	if version != 1 && version != indexFormatVersion {
		return nil, &IndexFormatError{
			Path:          path,
			FormatVersion: version,
			Reason:        fmt.Sprintf("format version %d not supported (this build reads versions 1 to %d)", version, indexFormatVersion),
		}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, &IndexFormatError{Path: path, FormatVersion: version, Reason: "checksum mismatch (file corrupt or torn)"}
	}
	return decodeIndexGob(body[len(indexMagic)+4:], path, version)
}

// decodeIndexGob decodes the gob payload of the given format version
// (0 for a bare legacy gob stream, which is a version 1 payload) and
// converts a version 1 payload's maps to the artifact's positional form.
// Gob panics on some malformed inputs; the recover turns those into the
// same typed error as a decode failure.
func decodeIndexGob(data []byte, path string, formatVersion uint32) (ix *Index, err error) {
	fail := func(reason string, err error) *IndexFormatError {
		return &IndexFormatError{Path: path, FormatVersion: formatVersion, Reason: reason, Err: err}
	}
	defer func() {
		if r := recover(); r != nil {
			ix, err = nil, fail(fmt.Sprintf("payload decode panicked: %v", r), nil)
		}
	}()
	var c indexCodec
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); derr != nil {
		return nil, fail("payload decode failed", derr)
	}
	if formatVersion < indexFormatVersion {
		var v1 indexCodecV1
		if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(&v1); derr != nil {
			return nil, fail("payload decode failed", derr)
		}
		if v1.Version != 1 {
			return nil, fail(fmt.Sprintf("index version %d not supported (want 1)", v1.Version), nil)
		}
		c.RetainedMixtures = make([]uncertain.Mixture, len(c.Retained))
		for i, f := range c.Retained {
			if _, ok := v1.Exact[f]; !ok {
				c.RetainedMixtures[i] = v1.Mixtures[f]
			}
		}
		c.ExactFrames = slices.Sorted(maps.Keys(v1.Exact))
		c.ExactScores = make([]float64, len(c.ExactFrames))
		for i, f := range c.ExactFrames {
			c.ExactScores[i] = v1.Exact[f]
		}
	}
	if len(c.ExactFrames) != len(c.ExactScores) {
		return nil, fail("inconsistent index", fmt.Errorf("%d exact frames with %d scores", len(c.ExactFrames), len(c.ExactScores)))
	}
	art := &engine.Artifact{
		Dataset:     c.Dataset,
		UDFName:     c.UDFName,
		TotalFrames: c.TotalFrames,
		Retained:    c.Retained,
		RepOf:       c.RepOf,
		Exact:       make(map[int32]float64, len(c.ExactFrames)),
		Mixtures:    c.RetainedMixtures,
		Info: phase1.Info{
			TotalFrames:    c.Info.TotalFrames,
			TrainSamples:   c.Info.TrainSamples,
			HoldoutSamples: c.Info.HoldoutSamples,
			Retained:       c.Info.Retained,
			Hyper:          c.Info.Hyper,
			HoldoutNLL:     c.Info.HoldoutNLL,
		},
	}
	for i, f := range c.ExactFrames {
		if i > 0 && f <= c.ExactFrames[i-1] {
			return nil, fail("inconsistent index", fmt.Errorf("exact frame %d out of order (after %d)", f, c.ExactFrames[i-1]))
		}
		art.Exact[f] = c.ExactScores[i]
	}
	// A checksum says the bytes are the ones written, not that they
	// describe an index: queries index positional tables by frame, so an
	// inconsistent artifact is refused here, not discovered by one.
	if verr := art.Validate(); verr != nil {
		return nil, fail("inconsistent index", verr)
	}
	return &Index{art: art, info: c.Info, ingestMS: c.IngestMS}, nil
}
