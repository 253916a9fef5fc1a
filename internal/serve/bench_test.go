package serve

import (
	"bytes"
	"testing"

	"psd"
)

// BenchmarkServeCount measures Release.Count — the full serving hot path
// under the HTTP handler (cache lookup, slab query, stats) — with the
// cache disabled (every call runs the query engine) and with a warm cache.
// Allocs are the headline: the acceptance bar is 0 allocs/op for both.
func BenchmarkServeCount(b *testing.B) {
	tree := buildTree(b, 77)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		b.Fatal(err)
	}
	q := psd.NewRect(10, 20, 55, 70)

	for _, mode := range []struct {
		name      string
		cacheSize int
	}{
		{"nocache", 0},
		{"cachehit", 1024},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reg := NewRegistry(mode.cacheSize)
			rel, err := reg.Register("bench", "bench", bytes.NewReader(artifact.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			rel.Count(q) // warm the cache (and the stack pool)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.Count(q)
			}
		})
	}
}

// BenchmarkServeBatch measures Release.CountBatchInto — the engine call
// behind the /batch endpoint — at serving batch sizes, with the cache off
// (every rectangle runs through one node-major engine call) and fully warm
// (every rectangle is a hit). Allocs are the headline: the acceptance bar
// is 0 allocs/op steady-state for both, since the miss scratch and the
// engine's traversal state are pooled (cache-miss insertions are excluded
// by construction: nocache never inserts, cachehit never misses).
func BenchmarkServeBatch(b *testing.B) {
	tree := buildTree(b, 79)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		b.Fatal(err)
	}
	d := tree.Domain()
	qs := make([]psd.Rect, 256)
	for i := range qs {
		fx := float64(i%16) / 16
		fy := float64(i/16) / 16
		qs[i] = psd.NewRect(
			d.Lo.X+fx*d.Width()*0.9, d.Lo.Y+fy*d.Height()*0.9,
			d.Lo.X+(fx+0.1)*d.Width()*0.9, d.Lo.Y+(fy+0.1)*d.Height()*0.9,
		)
	}
	for _, mode := range []struct {
		name      string
		cacheSize int
	}{
		{"nocache", 0},
		{"cachehit", 1 << 14},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reg := NewRegistry(mode.cacheSize)
			rel, err := reg.Register("bench", "bench", bytes.NewReader(artifact.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			vals := make([]float64, len(qs))
			rel.CountBatchInto(vals, qs) // warm the cache and the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.CountBatchInto(vals, qs)
			}
			b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkRegister measures artifact open into the registry — the hot
// reload path — for both encodings of the same release.
func BenchmarkRegister(b *testing.B) {
	tree := buildTree(b, 78)
	var jsonBuf, binBuf bytes.Buffer
	if err := tree.WriteRelease(&jsonBuf); err != nil {
		b.Fatal(err)
	}
	if err := tree.WriteBinaryV3Release(&binBuf); err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"json", jsonBuf.Bytes()},
		{"binary", binBuf.Bytes()},
	} {
		b.Run(enc.name, func(b *testing.B) {
			reg := NewRegistry(0)
			b.ReportAllocs()
			b.SetBytes(int64(len(enc.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.Register("bench", "bench", bytes.NewReader(enc.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
