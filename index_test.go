package everest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func TestBuildIndexAndQuery(t *testing.T) {
	src := testSource(t, 9000, 41)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)

	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Dataset() != src.Name() || ix.UDFName() != udf.Name() {
		t.Fatalf("index metadata wrong: %s / %s", ix.Dataset(), ix.UDFName())
	}
	if ix.IngestMS() <= 0 {
		t.Fatal("ingestion cost not recorded")
	}

	res, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v", res.Confidence)
	}
	// Indexed queries pay Phase 2 only: far below the ingestion cost and
	// below a fresh end-to-end run.
	if res.Clock.TotalMS() >= ix.IngestMS() {
		t.Fatalf("indexed query cost %v not below ingest cost %v",
			res.Clock.TotalMS(), ix.IngestMS())
	}
	// Certain-result condition still holds.
	for i, id := range res.IDs {
		if int(res.Scores[i]) != src.TrueCountFast(id) {
			t.Fatalf("frame %d score %v, truth %d", id, res.Scores[i], src.TrueCountFast(id))
		}
	}
}

func TestIndexMatchesFreshRun(t *testing.T) {
	// The index captures exactly Phase 1's outputs, so an indexed query
	// must return the same result set as a fresh end-to-end run with the
	// same seed.
	src := testSource(t, 9000, 43)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)

	fresh, err := Run(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.IDs) != len(indexed.IDs) {
		t.Fatalf("result sizes differ: %d vs %d", len(fresh.IDs), len(indexed.IDs))
	}
	for i := range fresh.IDs {
		if fresh.IDs[i] != indexed.IDs[i] {
			t.Fatalf("results diverge at %d: %v vs %v", i, fresh.IDs, indexed.IDs)
		}
	}
	if fresh.Confidence != indexed.Confidence {
		t.Fatalf("confidence diverges: %v vs %v", fresh.Confidence, indexed.Confidence)
	}
}

func TestIndexAmortizesAcrossQueries(t *testing.T) {
	src := testSource(t, 9000, 47)
	udf := vision.CountUDF{Class: video.ClassCar}
	base := smallCfg(5)
	ix, err := BuildIndex(src, udf, base)
	if err != nil {
		t.Fatal(err)
	}
	// Different K and thres reuse the same index.
	for _, k := range []int{1, 3, 10} {
		cfg := base
		cfg.K = k
		res, err := ix.Query(src, udf, cfg)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if len(res.IDs) != k || res.Confidence < 0.9 {
			t.Fatalf("K=%d: size %d confidence %v", k, len(res.IDs), res.Confidence)
		}
	}
	// Window query from the same index.
	cfg := base
	cfg.K = 3
	cfg.Window = 30
	res, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsWindow || len(res.IDs) != 3 {
		t.Fatalf("window query from index: %+v", res)
	}
}

func TestIndexValidation(t *testing.T) {
	src := testSource(t, 6000, 53)
	other := testSource(t, 6000, 54)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	// Different video (name differs only via config name... same name here,
	// so check the frame-count mismatch path).
	short := testSource(t, 3000, 53)
	if _, err := ix.Query(short, udf, smallCfg(3)); err == nil {
		t.Fatal("frame-count mismatch should be rejected")
	}
	// Different UDF.
	if _, err := ix.Query(src, vision.CountUDF{Class: video.ClassPerson}, smallCfg(3)); err == nil {
		t.Fatal("UDF mismatch should be rejected")
	}
	// K too large.
	big := smallCfg(3)
	big.K = 10_000_000
	if _, err := ix.Query(src, udf, big); err == nil {
		t.Fatal("oversized K should be rejected")
	}
	_ = other
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	src := testSource(t, 6000, 59)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(4)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatalf("round-tripped index diverges: %v vs %v", a.IDs, b.IDs)
		}
	}
	if loaded.IngestMS() != ix.IngestMS() {
		t.Fatal("ingest cost lost in round trip")
	}
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage input should fail to decode")
	}
}

// TestIndexFileFormat locks the persisted index's on-disk contract:
// atomic SaveFile/LoadFile round trip, typed *IndexFormatError for
// corruption and unknown format versions, and the compatibility path
// for unversioned (pre-header) files.
func TestIndexFileFormat(t *testing.T) {
	src := testSource(t, 3000, 61)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(3)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/archie.evidx"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	t.Run("round trip", func(t *testing.T) {
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Dataset() != ix.Dataset() || loaded.CertainFrames() != ix.CertainFrames() {
			t.Fatal("LoadFile changed the index")
		}
		// No temp residue from the atomic save.
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("SaveFile left its temp file behind")
		}
	})

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bit flip fails typed", func(t *testing.T) {
		for _, off := range []int{20, len(data) / 2, len(data) - 5} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x01
			var ferr *IndexFormatError
			if _, err := LoadIndex(bytes.NewReader(bad)); !errors.As(err, &ferr) {
				t.Fatalf("bit flip at %d: %v, want *IndexFormatError", off, err)
			}
		}
	})

	t.Run("truncation fails typed", func(t *testing.T) {
		for _, n := range []int{0, 4, len(indexMagic), len(indexMagic) + 2, len(data) / 2, len(data) - 1} {
			var ferr *IndexFormatError
			if _, err := LoadIndex(bytes.NewReader(data[:n])); !errors.As(err, &ferr) {
				t.Fatalf("truncation to %d: %v, want *IndexFormatError", n, err)
			}
		}
	})

	t.Run("future format version refused", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(indexMagic)] = 99 // format version field
		var ferr *IndexFormatError
		if _, err := LoadIndex(bytes.NewReader(bad)); !errors.As(err, &ferr) {
			t.Fatalf("future version: %v, want *IndexFormatError", err)
		}
		if ferr.FormatVersion != 99 {
			t.Fatalf("FormatVersion = %d, want 99", ferr.FormatVersion)
		}
	})

	t.Run("unversioned legacy file loads", func(t *testing.T) {
		// Files from before the header existed are a bare gob stream.
		loaded, err := LoadIndex(bytes.NewReader(saveV1(t, ix, false)))
		if err != nil {
			t.Fatalf("legacy unversioned index: %v", err)
		}
		if loaded.Dataset() != ix.Dataset() {
			t.Fatal("legacy load changed the index")
		}
	})

	t.Run("garbage names the unversioned possibility", func(t *testing.T) {
		var ferr *IndexFormatError
		_, err := LoadIndex(bytes.NewReader([]byte("neither headered nor legacy gob")))
		if !errors.As(err, &ferr) {
			t.Fatalf("garbage: %v, want *IndexFormatError", err)
		}
		if !strings.Contains(ferr.Reason, "unversioned") {
			t.Fatalf("garbage error should mention the unversioned compat path, got %q", ferr.Reason)
		}
	})
}

// TestLoadIndexRejectsInconsistentArtifact: a checksum-valid file whose
// payload is not a consistent artifact is refused at load with a typed
// error. Such a file used to load with err == nil and then answer a
// window query over half the video, or fail (frame query) or silently
// score a frame N(0, 0) (window query) at the first query. A version 1
// file of a consistent artifact loads, answers as the index it was
// written from, and re-saves as the version 2 file of that index.
func TestLoadIndexRejectsInconsistentArtifact(t *testing.T) {
	src := testSource(t, 1200, 67)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(3)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unlabelled := slices.IndexFunc(ix.art.Mixtures, func(m uncertain.Mixture) bool { return len(m) > 0 })
	notRetained := int32(0)
	for _, f := range ix.art.Retained {
		if f != notRetained {
			break
		}
		notRetained++
	}
	cases := map[string]func(a *engine.Artifact){
		"short RepOf":                 func(a *engine.Artifact) { a.RepOf = a.RepOf[:600] },
		"out-of-range representative": func(a *engine.Artifact) { a.RepOf[17] = 1200 },
		"representative represented elsewhere": func(a *engine.Artifact) {
			for x, r := range a.RepOf {
				if int(r) != x {
					a.RepOf[r] = int32(x)
					return
				}
			}
		},
		"unsorted Retained":                   func(a *engine.Artifact) { a.Retained[3], a.Retained[4] = a.Retained[4], a.Retained[3] },
		"mixtures shorter than Retained":      func(a *engine.Artifact) { a.Mixtures = a.Mixtures[:len(a.Mixtures)-1] },
		"mixtures longer than Retained":       func(a *engine.Artifact) { a.Mixtures = append(a.Mixtures, a.Mixtures[unlabelled]) },
		"exact label on a non-retained frame": func(a *engine.Artifact) { a.Exact[notRetained] = 1 },
		"empty mixture on a non-exact frame":  func(a *engine.Artifact) { a.Mixtures[unlabelled] = nil },
		"mixture on an exact frame": func(a *engine.Artifact) {
			labelled := slices.IndexFunc(a.Retained, func(f int32) bool { _, ok := a.Exact[f]; return ok })
			a.Mixtures[labelled] = a.Mixtures[unlabelled]
		},
	}
	for name, corrupt := range cases {
		bad := &Index{art: ix.art.Clone(), info: ix.info, ingestMS: ix.ingestMS}
		corrupt(bad.art)
		var file bytes.Buffer
		if err := bad.Save(&file); err != nil {
			t.Fatal(err)
		}
		var ferr *IndexFormatError
		if _, err := LoadIndex(&file); !errors.As(err, &ferr) {
			t.Fatalf("%s: LoadIndex error %v, want *IndexFormatError", name, err)
		}
		if ferr.FormatVersion != indexFormatVersion || ferr.Err == nil {
			t.Fatalf("%s: error %+v names neither the format version nor what is inconsistent", name, ferr)
		}
	}
	// Uncorrupted, it loads.
	var file bytes.Buffer
	if err := ix.Save(&file); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}

	want, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []bool{true, false} {
		loaded, err := LoadIndex(bytes.NewReader(saveV1(t, ix, header)))
		if err != nil {
			t.Fatalf("version 1 file (header %v): %v", header, err)
		}
		got, err := loaded.Query(src, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Scores, want.Scores) {
			t.Fatalf("version 1 file (header %v) answers %v %v, want %v %v", header, got.IDs, got.Scores, want.IDs, want.Scores)
		}
		var resaved bytes.Buffer
		if err := loaded.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), file.Bytes()) {
			t.Fatalf("version 1 file (header %v) re-saves to %d bytes unlike the index's own %d-byte version 2 file", header, resaved.Len(), file.Len())
		}
	}
}

// TestIndexSaveByteStable: saving an index writes the same bytes every
// time, and loading a file and saving it again reproduces the file.
func TestIndexSaveByteStable(t *testing.T) {
	ix, err := BuildIndex(testSource(t, 3000, 61), vision.CountUDF{Class: video.ClassCar}, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/archie.evidx"
	var first []byte
	for i := range 5 {
		if err := ix.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("save %d wrote different bytes from the first save", i)
		}
	}
	loaded, err := LoadIndex(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), first) {
		t.Fatal("a loaded index saves to different bytes from its file")
	}
}

// tinyIndex is a valid four-frame index, built without a video.
func tinyIndex() *Index {
	return &Index{
		art: &engine.Artifact{
			Dataset: "tiny", UDFName: "count", TotalFrames: 4,
			RepOf:    []int32{0, 0, 2, 2},
			Retained: []int32{0, 2},
			Exact:    map[int32]float64{0: 3},
			Mixtures: []uncertain.Mixture{nil, {{Weight: 1, Mean: 1, Sigma: 1}}},
		},
		info:     Phase1Info{TotalFrames: 4, Retained: 2},
		ingestMS: 12.5,
	}
}

// TestIndexSaveSameBytesInAnyProcess: gob numbers the types a process
// encodes in the order it meets them, so a process that encodes another
// type before its first save must still write the same index bytes. The
// test reruns its own binary as that process.
func TestIndexSaveSameBytesInAnyProcess(t *testing.T) {
	if path := os.Getenv("EVEREST_TEST_SAVE_TO"); path != "" {
		if err := gob.NewEncoder(io.Discard).Encode(struct{ A map[string][]int16 }{}); err != nil {
			t.Fatal(err)
		}
		if err := tinyIndex().SaveFile(path); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want bytes.Buffer
	if err := tinyIndex().Save(&want); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/tiny.evidx"
	child := exec.Command(os.Args[0], "-test.run=^TestIndexSaveSameBytesInAnyProcess$")
	child.Env = append(os.Environ(), "EVEREST_TEST_SAVE_TO="+path)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("another process saved the index to different bytes")
	}
}

// legacyIndexCodec is the whole payload of format version 1, as older
// builds wrote it.
type legacyIndexCodec struct {
	Version     int
	Dataset     string
	UDFName     string
	TotalFrames int
	Retained    []int32
	RepOf       []int32
	Exact       map[int32]float64
	Mixtures    map[int32]uncertain.Mixture
	Info        Phase1Info
	IngestMS    float64
}

// saveV1 returns ix as a version 1 file: headered and checksummed, or
// (header false) the bare gob stream written before the header existed.
func saveV1(t testing.TB, ix *Index, header bool) []byte {
	t.Helper()
	c := legacyIndexCodec{
		Version:     1,
		Dataset:     ix.art.Dataset,
		UDFName:     ix.art.UDFName,
		TotalFrames: ix.art.TotalFrames,
		Retained:    ix.art.Retained,
		RepOf:       ix.art.RepOf,
		Exact:       ix.art.Exact,
		Mixtures:    map[int32]uncertain.Mixture{},
		Info:        ix.info,
		IngestMS:    ix.ingestMS,
	}
	for i, f := range ix.art.Retained {
		if len(ix.art.Mixtures[i]) > 0 {
			c.Mixtures[f] = ix.art.Mixtures[i]
		}
	}
	var buf bytes.Buffer
	if header {
		buf.Write(indexMagic[:])
		buf.Write(binary.LittleEndian.AppendUint32(nil, 1))
	}
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	if header {
		buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(buf.Bytes())))
	}
	return buf.Bytes()
}

// FuzzLoadIndex: whatever the bytes, LoadIndex never panics and fails
// only with an *IndexFormatError; an index it accepts is valid, and
// saves to a file that loads again and saves to the same bytes.
func FuzzLoadIndex(f *testing.F) {
	ix := tinyIndex()
	var v2 bytes.Buffer
	if err := ix.Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(saveV1(f, ix, true))
	f.Add(saveV1(f, ix, false))
	f.Add([]byte("not an index"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := LoadIndex(bytes.NewReader(data))
		if err != nil {
			var ferr *IndexFormatError
			if !errors.As(err, &ferr) {
				t.Fatalf("LoadIndex error %v, want *IndexFormatError", err)
			}
			return
		}
		if err := ix.art.Validate(); err != nil {
			t.Fatalf("accepted an invalid index: %v", err)
		}
		var saved bytes.Buffer
		if err := ix.Save(&saved); err != nil {
			t.Fatal(err)
		}
		again, err := LoadIndex(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("a re-saved index does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
			t.Fatal("a re-saved index saves to different bytes once loaded")
		}
	})
}

// truthCount is the car count read from the video's event timeline
// under CountUDF's name: an oracle that allocates nothing per frame, so
// what a query allocates is Phase 2's own. (The detector behind
// CountUDF allocates per frame, and longer videos clean more frames.)
type truthCount struct {
	vision.CountUDF
	src *video.Synthetic
}

func (u truthCount) Score(_ video.Source, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(u.src.TrueCountFast(id))
	}
	return out
}

// uncachedQueryBytes ingests frames frames of Archie and returns the
// bytes one uncached query of window frames (0: a frame query)
// allocates once the index is warm (the mean of five), with the size of
// its relation: the retained frames, or the windows.
func uncachedQueryBytes(t *testing.T, frames, window int) (float64, int) {
	t.Helper()
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(frames)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(10)
	cfg.Procs = 1
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Window = window
	oracle := truthCount{udf, src}
	if _, err := ix.Query(src, oracle, cfg); err != nil { // prepares the D0 base
		t.Fatal(err)
	}
	const reps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		if _, err := ix.Query(src, oracle, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	tuples := len(ix.art.Retained)
	if window > 0 {
		tuples = frames / window
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / reps, tuples
}

// TestUncachedQueryCopiesNoRelation: an uncached query reads the index's
// prepared D0 in place. What it allocates grows by at most 8 bytes per
// retained frame between two video lengths (4.7 logged) — a live flag
// per frame, and a 16-byte ψ entry only per frame whose top level can
// still beat S_k; a ψ entry per uncertain frame (19.7 B in all) or a
// per-query copy of the 64-byte tuples would exceed it.
func TestUncachedQueryCopiesNoRelation(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations are counted")
	}
	shortB, shortN := uncachedQueryBytes(t, 2000, 0)
	longB, longN := uncachedQueryBytes(t, 8000, 0)
	perFrame := (longB - shortB) / float64(longN-shortN)
	t.Logf("%d → %d retained frames: %.0f → %.0f B per query, %.1f B per added frame", shortN, longN, shortB, longB, perFrame)
	if perFrame > 8 {
		t.Fatalf("an uncached query allocates %.1f B per retained frame, budget 8", perFrame)
	}
}

// TestUncachedWindowQueryBuildsNoRelation: an uncached window query
// reads the shape's memoized, prepared relation in place — no window is
// aggregated and no tuple copied. What it allocates grows by at most 48
// bytes per window between two video lengths (a live flag and a 16-byte
// ψ entry per uncertain window, and the confirmations of the few more
// windows a longer video ranks: about 38 bytes in all); a per-query
// copy of the 64-byte tuples alone would exceed it, and aggregating
// every window and preparing the result per query cost about 450.
func TestUncachedWindowQueryBuildsNoRelation(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations are counted")
	}
	shortB, shortN := uncachedQueryBytes(t, 2000, 10)
	longB, longN := uncachedQueryBytes(t, 8000, 10)
	perWindow := (longB - shortB) / float64(longN-shortN)
	t.Logf("%d → %d windows: %.0f → %.0f B per query, %.1f B per added window", shortN, longN, shortB, longB, perWindow)
	if perWindow > 48 {
		t.Fatalf("an uncached window query allocates %.1f B per window, budget 48", perWindow)
	}
}

// TestQueryAllocationBudget: a query against a warm index pays for the
// Phase 2 loop, not for re-deriving or copying D0 — an uncached frame
// query over 4,000 frames (about 3,800 retained) stays under 0.017 MB
// and 125 allocations (0.0149 MB in 113 to 116; a bool per tuple for
// the run's live mask, 0.0183 MB); a ψ entry per uncertain frame took
// 0.07 MB. Re-quantizing every mixture
// and re-hashing every tuple per query took about 1.5 MB in 11,000;
// copying the base per query, 0.57 MB in 496; building a scene and its
// detections per confirmed frame, 0.34 MB in 484. An uncached query of
// 30-frame windows (133 of them) reads the shape's memoized relation
// prepared, and stays under 0.016 MB and 360 allocations (0.0141 MB in
// 343); aggregating
// every window and preparing the result per query took 0.23 MB in
// 1,027, building the confirmations' scenes 0.19 MB in 751. A frame
// query in a session whose cache holds 512 labels stays under 0.005 MB
// and 40 allocations, and a window query in that session, whose labels
// touch about a third of the windows, under 0.016 MB and 200.
func TestQueryAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations are counted")
	}
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(4000)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(10)
	cfg.Procs = 1
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		window int
		mb     float64
		allocs uint64
	}{
		{"frame", 0, 0.017, 125},
		{"window", 30, 0.016, 360},
	} {
		cfg.Window = c.window
		if _, err := ix.Query(src, udf, cfg); err != nil { // builds the D0 base
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ix.Query(src, udf, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		n := after.Mallocs - before.Mallocs
		t.Logf("%s query, %d retained frames: %.4f MB in %d allocations", c.name, len(ix.art.Retained), mb, n)
		if mb >= c.mb || n >= c.allocs {
			t.Fatalf("a warm %s query allocated %.4f MB in %d allocations, budget %v MB in %d", c.name, mb, n, c.mb, c.allocs)
		}
	}

	// A frame query under a session overlay of 512 labels starts from
	// the overlay's overrides: it walks them once, allocating nothing per
	// label or per tuple — 0.0039 MB in 36 allocations, the cache already
	// holding every label it confirms (0.0073 MB with a bool per tuple
	// for the live mask). Materializing the overrides as a slice would
	// add about 0.016 MB in 10 allocations.
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Window = 0
	for _, k := range []int{10, 40, 80, 120} {
		warm := cfg
		warm.K, warm.Threshold = k, 0.99
		if _, err := sess.Query(warm); err != nil {
			t.Fatal(err)
		}
	}
	sessionQuery := func(name string, cfg Config, budgetMB float64, budgetAllocs uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sess.Query(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		n := after.Mallocs - before.Mallocs
		t.Logf("session %s query over %d cached labels: %.4f MB in %d allocations", name, sess.CachedLabels(), mb, n)
		if mb >= budgetMB || n >= budgetAllocs {
			t.Fatalf("a session %s query over %d cached labels allocated %.4f MB in %d allocations, budget %v MB in %d",
				name, sess.CachedLabels(), mb, n, budgetMB, budgetAllocs)
		}
	}
	sessionQuery("frame", cfg, 0.005, 40)

	// A window query in the same session: the cache labels
	// representatives, so the overlay touches windows (47 of 133). The
	// query re-aggregates them in a pooled copy of the shape's relation
	// and starts from the shape's prepared base with them as overrides —
	// 0.0143 MB in 191 allocations; a fresh copy per query took 0.024 MB,
	// and preparing that copy per query 0.028 MB in 258. The first
	// window query builds and prepares the shape's memo and leaves a run
	// relation in its pool.
	win := cfg
	win.Window = 30
	if _, err := sess.Query(win); err != nil {
		t.Fatal(err)
	}
	sessionQuery("window", win, 0.016, 200)
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
