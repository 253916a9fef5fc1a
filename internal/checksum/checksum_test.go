package checksum

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
)

var polys = []struct {
	name string
	poly uint64
	tab  *Table
}{
	{"ECMA", crc64.ECMA, ECMA},
	{"ISO", crc64.ISO, Fingerprint},
}

// bothPaths runs fn once on the path this machine selects and once with
// the kernel forced off.
func bothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("kernel=%v", useKernel), fn)
	if !useKernel {
		return
	}
	t.Run("portable", func(t *testing.T) {
		useKernel = false
		defer func() { useKernel = true }()
		fn(t)
	})
}

// TestUpdateMatchesCRC64 compares Update with hash/crc64 at every length
// 0..4096, every alignment 0..15 and a random initial CRC per case.
func TestUpdateMatchesCRC64(t *testing.T) {
	if !useKernel {
		t.Logf("no folding kernel on this machine; only the portable path runs")
	}
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096+16)
	r.Read(buf)
	bothPaths(t, func(t *testing.T) {
		for _, pc := range polys {
			ref := crc64.MakeTable(pc.poly)
			for n := 0; n <= 4096; n++ {
				for off := 0; off < 16; off++ {
					p := buf[off : off+n]
					init := r.Uint64()
					if got, want := Update(init, pc.tab, p), crc64.Update(init, ref, p); got != want {
						t.Fatalf("%s: Update(%#x, len %d, offset %d) = %#x, want %#x", pc.name, init, n, off, got, want)
					}
				}
			}
		}
	})
}

// TestSplitWrites checks that a digest fed in pieces sums to Checksum of
// the whole, and that its Sum is hash/crc64's.
func TestSplitWrites(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := make([]byte, 1<<16+37)
	r.Read(data)
	bothPaths(t, func(t *testing.T) {
		for _, pc := range polys {
			want := Checksum(data, pc.tab)
			if ref := crc64.Checksum(data, crc64.MakeTable(pc.poly)); want != ref {
				t.Fatalf("%s: Checksum = %#x, hash/crc64 %#x", pc.name, want, ref)
			}
			for trial := 0; trial < 50; trial++ {
				d := New(pc.tab)
				for rest := data; len(rest) > 0; {
					k := min(len(rest), r.Intn(3000))
					d.Write(rest[:k])
					rest = rest[k:]
				}
				if got := d.Sum64(); got != want {
					t.Fatalf("%s: split writes sum to %#x, one-shot %#x", pc.name, got, want)
				}
				ref := crc64.New(crc64.MakeTable(pc.poly))
				ref.Write(data)
				if got, want := fmt.Sprintf("%x", d.Sum([]byte("x"))), fmt.Sprintf("%x", ref.Sum([]byte("x"))); got != want {
					t.Fatalf("%s: Sum = %s, hash/crc64 %s", pc.name, got, want)
				}
				d.Reset()
				if d.Sum64() != 0 {
					t.Fatalf("%s: Reset left %#x", pc.name, d.Sum64())
				}
			}
		}
	})
}

func FuzzUpdate(f *testing.F) {
	f.Add([]byte("PSD3"), 0, uint64(0))
	f.Add(make([]byte, 200), 70, ^uint64(0))
	f.Add(make([]byte, 129), 64, uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, data []byte, split int, init uint64) {
		if split < 0 || split > len(data) {
			split = len(data) / 2
		}
		for _, pc := range polys {
			want := crc64.Update(init, crc64.MakeTable(pc.poly), data)
			if got := Update(init, pc.tab, data); got != want {
				t.Fatalf("%s: Update = %#x, hash/crc64 %#x", pc.name, got, want)
			}
			if got := Update(Update(init, pc.tab, data[:split]), pc.tab, data[split:]); got != want {
				t.Fatalf("%s: split at %d = %#x, hash/crc64 %#x", pc.name, split, got, want)
			}
		}
	})
}

// TestCombine checks Combine against hash/crc64 over A‖B for B lengths
// around the kernel's 64-byte block and past a mebibyte.
func TestCombine(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := make([]byte, 1000)
	b := make([]byte, 1<<20+3)
	r.Read(a)
	r.Read(b)
	for _, pc := range polys {
		ref := crc64.MakeTable(pc.poly)
		for _, lenA := range []int{0, 1, 1000} {
			for _, lenB := range []int{0, 1, 63, 64, 65, 1<<20 + 3} {
				A, B := a[:lenA], b[:lenB]
				want := crc64.Update(crc64.Checksum(A, ref), ref, B)
				if got := Combine(Checksum(A, pc.tab), Checksum(B, pc.tab), int64(lenB), pc.tab); got != want {
					t.Errorf("%s: Combine over len(A)=%d, len(B)=%d = %#x, hash/crc64 %#x", pc.name, lenA, lenB, got, want)
				}
			}
		}
	}
}

// FuzzCombine splits data at a fuzzed point and joins the halves' CRCs.
func FuzzCombine(f *testing.F) {
	f.Add([]byte("PSD3END"), 3)
	f.Add(make([]byte, 200), 70)
	f.Add(make([]byte, 129), 0)
	f.Fuzz(func(t *testing.T, data []byte, split int) {
		if split < 0 || split > len(data) {
			split = len(data) / 2
		}
		a, b := data[:split], data[split:]
		for _, pc := range polys {
			want := crc64.Checksum(data, crc64.MakeTable(pc.poly))
			if got := Combine(Checksum(a, pc.tab), Checksum(b, pc.tab), int64(len(b)), pc.tab); got != want {
				t.Fatalf("%s: Combine at split %d of %d = %#x, hash/crc64 %#x", pc.name, split, len(data), got, want)
			}
		}
	})
}

var sink uint64

func BenchmarkUpdate(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"64KiB", 64 << 10}, {"56MiB", 56 << 20}} {
		size := sz.n
		data := make([]byte, size)
		rand.New(rand.NewSource(3)).Read(data)
		for _, path := range []struct {
			name string
			on   bool
		}{{"kernel", useKernel}, {"crc64", false}} {
			b.Run(sz.name+"/"+path.name, func(b *testing.B) {
				saved := useKernel
				useKernel = path.on
				defer func() { useKernel = saved }()
				b.SetBytes(int64(size))
				for b.Loop() {
					sink = Update(sink, ECMA, data)
				}
			})
		}
	}
}
