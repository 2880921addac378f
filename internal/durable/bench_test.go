package durable

import (
	"math/rand"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// BenchmarkRecover times the attach path a restart pays, Open plus
// Recovered, on a directory a capped serving cache left behind: ~96-frame
// publishes over 20,000 frames into a cache capped at 4,000 labels,
// checkpointed every 64 records, so recovery decodes a 4,000-label
// checkpoint, replays the publish and evict records logged after it,
// and builds the cache's label map from the result.
func BenchmarkRecover(b *testing.B) {
	const frames, batch, maxLabels, publishes = 20000, 96, 4000, 150
	dir := b.TempDir()
	s, err := Open(dir, Options{FS: noSyncFS{}})
	if err != nil {
		b.Fatal(err)
	}
	c := labelstore.NewSharedCache()
	c.TightenPolicy(labelstore.Policy{MaxLabels: maxLabels})
	if err := c.EnableDurable(s); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < publishes; i++ {
		fresh := make(map[int]float64, batch)
		for j := 0; j < batch; j++ {
			fresh[rng.Intn(frames)] = rng.Float64()
		}
		c.Publish(fresh)
	}
	if err := c.DurableErr(); err != nil {
		b.Fatal(err)
	}
	want := c.Version()
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{FS: noSyncFS{}})
		if err != nil {
			b.Fatal(err)
		}
		if _, v := r.Recovered(); v != want {
			b.Fatalf("recovered version %d, want %d", v, want)
		}
		r.Close()
	}
}

// noSyncFS is the real filesystem with a no-op File.Sync, so the
// benchmarks time encoding and writing without waiting on the disk.
type noSyncFS struct{ OSFS }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

func noSync(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (fs noSyncFS) Create(name string) (File, error)     { return noSync(fs.OSFS.Create(name)) }
func (fs noSyncFS) OpenAppend(name string) (File, error) { return noSync(fs.OSFS.OpenAppend(name)) }
