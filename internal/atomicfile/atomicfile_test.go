package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	payload := strings.Repeat("artifact bytes ", 1000)

	n, err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("reported %d bytes, want %d", n, len(payload))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatal("content mismatch")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", info.Mode().Perm())
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("leftover files after success: %v", names)
	}
}

// TestWriteFailureLeavesOldFile pins the crash-safety contract: a failing
// write leaves the previous destination bytes untouched and no temp debris.
func TestWriteFailureLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("previous good artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("serialization exploded")
	_, err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "half an artif") // a prefix goes out before the failure
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous good artifact" {
		t.Fatalf("destination corrupted: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != "out.json" {
		t.Fatalf("temp debris after failure: %v", names)
	}
}

// TestWriteTempInvisibleToGlobs pins the publishing interaction: the temp
// file is dot-hidden, so a watch-dir scanner globbing *.json / *.bin can
// never pick up a half-written artifact even mid-write.
func TestWriteTempInvisibleToGlobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.bin")
	_, err := Write(path, func(w io.Writer) error {
		// Mid-write, the only file a glob may see is a complete artifact.
		for _, pat := range []string{"*.bin", "*.json"} {
			m, err := filepath.Glob(filepath.Join(dir, pat))
			if err != nil {
				return err
			}
			if len(m) != 0 {
				t.Errorf("mid-write glob %s matched %v", pat, m)
			}
		}
		_, werr := io.WriteString(w, "data")
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteLarge writes a file across several writeback steps, in pieces
// that straddle them: the count and every byte must be exact.
func TestWriteLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.bin")
	data := make([]byte, 2*writebackEvery+12345)
	for i := range data {
		data[i] = byte(i * 31)
	}
	n, err := Write(path, func(w io.Writer) error {
		for rest := data; len(rest) > 0; {
			k := min(len(rest), 1<<20+7)
			if _, err := w.Write(rest[:k]); err != nil {
				return err
			}
			rest = rest[k:]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("reported %d bytes, want %d", n, len(data))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("content mismatch")
	}
}

// TestWritebackSteps pins where writeback starts: each time another
// writebackEvery bytes have been written, for exactly the bytes behind
// the last start.
func TestWritebackSteps(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "wb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := &writeback{f: f}
	piece := make([]byte, 3<<20)
	for _, want := range []int64{0, 0, 9 << 20, 9 << 20, 9 << 20, 18 << 20} {
		if _, err := w.Write(piece); err != nil {
			t.Fatal(err)
		}
		if w.started != want {
			t.Fatalf("after %d bytes, writeback started for %d, want %d", w.written, w.started, want)
		}
	}
}
