package serve

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"psd"
)

// BenchmarkServeCount measures Release.CountCtx — the full serving hot path
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
			ctx := context.Background()
			rel.CountCtx(ctx, q) // warm the cache (and the stack pool)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.CountCtx(ctx, q)
			}
		})
	}
}

// BenchmarkServeBatch measures Release.CountBatchIntoCtx — the engine call
// behind the /batch endpoint — at serving batch sizes, with the cache off
// (every rectangle runs through one node-major engine call), fully warm
// (every rectangle is a hit), and full of other answers while every
// rectangle is new (every rectangle misses and its insert evicts). Allocs
// are the headline: the acceptance bar is 0 allocs/op steady-state for all
// three, since the miss scratch and the engine's traversal state are
// pooled and a full cache recycles its least recently used entries.
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
		fresh     bool // every batch's rectangles are new ones
	}{
		{"nocache", 0, false},
		{"cachehit", 1 << 14, false},
		{"cachemiss", 1 << 10, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reg := NewRegistry(mode.cacheSize)
			rel, err := reg.Register("bench", "bench", bytes.NewReader(artifact.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			batch := slices.Clone(qs)
			vals := make([]float64, len(qs))
			round := 0
			next := func() {
				if mode.fresh {
					// Nudge every upper x bound to a value no earlier batch used.
					round++
					for j, q := range qs {
						q.Hi.X += float64(round) * 1e-9 * d.Width()
						batch[j] = q
					}
				}
				rel.CountBatchIntoCtx(ctx, vals, batch, 1)
			}
			// Warm the pools and, for fresh rectangles, fill the cache so
			// every timed insert evicts.
			next()
			for mode.fresh && rel.cache.Len() < mode.cacheSize {
				next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
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
