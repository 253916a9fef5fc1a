package psd

import (
	"testing"
)

func TestKindStringUnknown(t *testing.T) {
	if got := Kind(99).String(); got != "unknown" {
		t.Errorf("Kind(99).String() = %q, want %q", got, "unknown")
	}
	if got := Kind(-1).String(); got != "unknown" {
		t.Errorf("Kind(-1).String() = %q, want %q", got, "unknown")
	}
	if got := KDHybrid.String(); got != "kd-hybrid" {
		t.Errorf("KDHybrid.String() = %q, want %q", got, "kd-hybrid")
	}
}

// The public API contract mirrored from core: same Seed ⇒ same release at
// any Parallelism, for the data-dependent default (EM medians).
func TestParallelismDoesNotChangeRelease(t *testing.T) {
	domain := NewRect(0, 0, 100, 100)
	points := clusteredPoints(8000, domain, 21)
	build := func(par int) *Tree {
		tr, err := Build(points, domain, Options{
			Kind: KDHybrid, Height: 5, Epsilon: 0.5, Seed: 77, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seq := build(1)
	for _, par := range []int{0, 2, 8} {
		got := build(par)
		sr, sc := seq.Regions()
		gr, gc := got.Regions()
		if len(sr) != len(gr) {
			t.Fatalf("par=%d: %d regions vs %d", par, len(gr), len(sr))
		}
		for i := range sr {
			if sr[i] != gr[i] || sc[i] != gc[i] {
				t.Fatalf("par=%d: region %d differs", par, i)
			}
		}
		for _, q := range []Rect{
			NewRect(1, 1, 40, 40), NewRect(10, 50, 90, 60), NewRect(0, 0, 100, 100),
		} {
			if seq.Count(q) != got.Count(q) {
				t.Fatalf("par=%d: Count(%v) differs", par, q)
			}
		}
	}
}

func TestCountBatchMatchesCount(t *testing.T) {
	domain := NewRect(0, 0, 50, 50)
	points := clusteredPoints(3000, domain, 22)
	tr, err := Build(points, domain, Options{Kind: QuadtreeKind, Height: 5, Epsilon: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Rect, 100)
	for i := range qs {
		f := float64(i)
		qs[i] = NewRect(f*0.3, f*0.2, f*0.3+5, f*0.2+8)
	}
	got := tr.CountBatch(qs)
	if len(got) != len(qs) {
		t.Fatalf("CountBatch returned %d answers for %d queries", len(got), len(qs))
	}
	for i, q := range qs {
		if want := tr.Count(q); got[i] != want {
			t.Errorf("query %d: CountBatch=%v Count=%v", i, got[i], want)
		}
	}
}
