package labelstore_test

import (
	"math/rand"
	"testing"

	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/labelstore"
)

// BenchmarkPublish times the cache's write path as serve_shared drives
// it: ~96-frame publishes over a 4,000-frame video into a cache capped
// at 400 labels, so each publish also evicts an older batch, with a
// durable store attached (a no-op File.Sync, a checkpoint every 64
// records) that logs both and keeps the cache's map as its state.
func BenchmarkPublish(b *testing.B) {
	const frames, batch, maxLabels = 4000, 96, 400
	rng := rand.New(rand.NewSource(1))
	batches := make([]map[int]float64, 256)
	for i := range batches {
		batches[i] = make(map[int]float64, batch)
		for j := 0; j < batch; j++ {
			batches[i][rng.Intn(frames)] = rng.Float64()
		}
	}
	store, err := durable.Open(b.TempDir(), durable.Options{FS: noSyncFS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	c := labelstore.NewSharedCache()
	c.TightenPolicy(labelstore.Policy{MaxLabels: maxLabels})
	if err := c.EnableDurable(store); err != nil {
		b.Fatal(err)
	}
	for _, fresh := range batches[:16] { // reach the cap's steady state
		c.Publish(fresh)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Publish(batches[i%len(batches)])
	}
	b.StopTimer()
	if err := c.DurableErr(); err != nil {
		b.Fatal(err)
	}
}

// noSyncFS is the real filesystem with a no-op File.Sync, so the
// benchmark times encoding and writing without waiting on the disk.
type noSyncFS struct{ durable.OSFS }

type noSyncFile struct{ durable.File }

func (noSyncFile) Sync() error { return nil }

func noSync(f durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (fs noSyncFS) Create(name string) (durable.File, error) { return noSync(fs.OSFS.Create(name)) }
func (fs noSyncFS) OpenAppend(name string) (durable.File, error) {
	return noSync(fs.OSFS.OpenAppend(name))
}
