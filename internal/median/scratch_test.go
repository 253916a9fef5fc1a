package median

import (
	"testing"

	"psd/internal/rng"
)

// builtinFinders enumerates the built-in finders.
func builtinFinders() map[string]Finder {
	return map[string]Finder{
		"exact": Exact{},
		"em":    &EM{},
		"ss":    &SS{Delta: 1e-4},
		"nm":    &NM{},
		"cell":  &Cell{Cells: 64},
		"em-s":  &Sampled{Inner: &EM{}, Rate: 0.5},
	}
}

// MedianAt must be a pure function of (stream, inputs): same stream, same
// answer, regardless of scratch reuse or interleaving with other calls.
func TestMedianAtStreamDeterminism(t *testing.T) {
	vals := make([]float64, 500)
	seedSrc := rng.New(5)
	for i := range vals {
		vals[i] = seedSrc.UniformIn(0, 100)
	}
	for name, f := range builtinFinders() {
		var sc1, sc2 Scratch
		in1 := append([]float64(nil), vals...)
		a, err := f.MedianAt(rng.At(99, 7, 1), &sc1, in1, 0, 100, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Interleave an unrelated call on the second scratch, then replay
		// the original stream: the answer must not move.
		if _, err := f.MedianAt(rng.At(1, 2, 3), &sc2, append([]float64(nil), vals...), 0, 100, 0.5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f.MedianAt(rng.At(99, 7, 1), &sc2, append([]float64(nil), vals...), 0, 100, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: replayed stream gave %v then %v", name, a, b)
		}
		if a < 0 || a > 100 {
			t.Errorf("%s: median %v outside domain", name, a)
		}
	}
}

// The whole point of Scratch: once warm, the median hot path allocates
// nothing per call.
func TestMedianAtAllocationFree(t *testing.T) {
	vals := make([]float64, 2048)
	seedSrc := rng.New(6)
	for i := range vals {
		vals[i] = seedSrc.UniformIn(0, 1)
	}
	in := make([]float64, len(vals))
	for name, f := range builtinFinders() {
		var sc Scratch
		call := func() {
			copy(in, vals)
			if _, err := f.MedianAt(rng.At(42, 11, 2), &sc, in, 0, 1, 0.4); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm the scratch buffers
		if avg := testing.AllocsPerRun(50, call); avg != 0 {
			t.Errorf("%s: %v allocs/op on a warm scratch, want 0", name, avg)
		}
	}
}

func BenchmarkEMMedianAtScratch(b *testing.B) {
	vals := make([]float64, 4096)
	src := rng.New(7)
	for i := range vals {
		vals[i] = src.UniformIn(0, 1)
	}
	in := make([]float64, len(vals))
	e := &EM{}
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(in, vals)
		if _, err := e.MedianAt(rng.At(1, uint64(i), 0), &sc, in, 0, 1, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
