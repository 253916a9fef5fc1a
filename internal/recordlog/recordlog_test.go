package recordlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// prefixes are the two framings the repository writes: the privacy ledger
// and the versions journal.
var prefixes = []string{"PSDL1 ", "PSDJ1 "}

// rec is a test record; state is its owner, which, like the ledger and the
// journal, refuses a record whose seq does not extend the history by one.
type rec struct {
	Seq  uint64 `json:"seq"`
	Name string `json:"name"`
}

type state struct{ recs []rec }

func (s *state) apply(r rec) error {
	if r.Seq != uint64(len(s.recs))+1 {
		return fmt.Errorf("record %d out of sequence (want %d)", r.Seq, len(s.recs)+1)
	}
	s.recs = append(s.recs, r)
	return nil
}

func open(t *testing.T, path, prefix string) (*Log[rec], *state) {
	t.Helper()
	s := &state{}
	l, err := Open(path, prefix, s.apply)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, s
}

// appendNext appends the record that extends s by one.
func appendNext(l *Log[rec], s *state) error {
	n := uint64(len(s.recs)) + 1
	return l.Append(rec{Seq: n, Name: "r" + strconv.FormatUint(n, 10)})
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTornTail pins crash recovery for both framings: every cut through the
// last line reopens to exactly the records before it, truncates the torn
// bytes away, and leaves the log appendable.
func TestTornTail(t *testing.T) {
	for _, prefix := range prefixes {
		t.Run(strings.TrimSpace(prefix), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, s := open(t, path, prefix)
			for i := 0; i < 2; i++ {
				if err := appendNext(l, s); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			lines := strings.SplitAfter(strings.TrimSuffix(readFile(t, path), "\n"), "\n")
			if len(lines) != 2 {
				t.Fatalf("log has %d lines, want 2", len(lines))
			}
			full := lines[0] + lines[1] + "\n"
			for cut := len(lines[0]); cut < len(full); cut++ {
				if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
					t.Fatal(err)
				}
				l2, s2 := open(t, path, prefix)
				if len(s2.recs) != 1 || s2.recs[0].Name != "r1" {
					t.Fatalf("cut=%d: replayed %+v, want only r1", cut, s2.recs)
				}
				if got := readFile(t, path); got != lines[0] {
					t.Fatalf("cut=%d: torn tail not truncated: %q", cut, got)
				}
				if err := appendNext(l2, s2); err != nil {
					t.Fatalf("cut=%d: append after recovery: %v", cut, err)
				}
				l2.Close()
				l3, s3 := open(t, path, prefix)
				l3.Close()
				if len(s3.recs) != 2 {
					t.Fatalf("cut=%d: reopen after recovery replayed %d records, want 2", cut, len(s3.recs))
				}
			}
		})
	}
}

// TestMidFileCorruption pins the loud failures: a bad line with complete
// records after it, or a valid line its owner refuses, means acknowledged
// history is unreadable, and the open must fail rather than drop it.
func TestMidFileCorruption(t *testing.T) {
	const prefix = "PSDL1 "
	cases := []struct {
		name    string
		corrupt func(lines []string) []string
		want    string
	}{
		{"payload bit flip", func(ls []string) []string {
			b := []byte(ls[0])
			b[len(prefix)+crcDigits+5] ^= 0x01
			ls[0] = string(b)
			return ls
		}, "records follow"},
		{"non-hex checksum", func(ls []string) []string {
			ls[0] = prefix + "zz" + ls[0][len(prefix)+2:]
			return ls
		}, "records follow"},
		{"wrong prefix", func(ls []string) []string {
			ls[0] = "PSDJ1 " + ls[0][len(prefix):]
			return ls
		}, "records follow"},
		{"refused record", func(ls []string) []string {
			return []string{ls[0], ls[2], ls[1]}
		}, "out of sequence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, s := open(t, path, prefix)
			for i := 0; i < 3; i++ {
				if err := appendNext(l, s); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			lines := strings.SplitAfter(strings.TrimSuffix(readFile(t, path), "\n"), "\n")
			lines[2] += "\n"
			bad := strings.Join(tc.corrupt(lines), "")
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, prefix, (&state{}).apply)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open = %v, want an error containing %q", err, tc.want)
			}
			if got := readFile(t, path); got != bad {
				t.Fatal("a failed open modified the log")
			}
		})
	}
}

// faultyFile injects failures into a Log's writes.
type faultyFile struct {
	file
	writeErr error // WriteAt writes half of p, then fails
	syncErr  error // the next Sync fails
	truncErr error
	writes   int
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.writeErr != nil {
		n, _ := f.file.WriteAt(p[:len(p)/2], off)
		return n, f.writeErr
	}
	return f.file.WriteAt(p, off)
}

func (f *faultyFile) Sync() error {
	if err := f.syncErr; err != nil {
		f.syncErr = nil
		return err
	}
	return f.file.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.file.Truncate(size)
}

// TestFailedAppendRollsBack pins the rollback: a failed write, a failed
// sync, or a record its owner refuses leaves no partial line and applies
// nothing, and the next good append replays with no gap in seq.
func TestFailedAppendRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, s := open(t, path, "PSDJ1 ")
	if err := appendNext(l, s); err != nil {
		t.Fatal(err)
	}
	durable := readFile(t, path)
	real := l.f
	boom := errors.New("injected")
	for _, ff := range []*faultyFile{{writeErr: boom}, {syncErr: boom}} {
		ff.file = real
		l.f = ff
		if err := appendNext(l, s); !errors.Is(err, boom) {
			t.Fatalf("append = %v, want the injected failure", err)
		}
		if got := readFile(t, path); got != durable {
			t.Fatalf("failed append left %q, want %q", got, durable)
		}
		if len(s.recs) != 1 {
			t.Fatalf("failed append was applied: %+v", s.recs)
		}
	}
	l.f = real
	if err := l.Append(rec{Seq: 7}); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("append of an out-of-sequence record = %v, want refused", err)
	}
	if got := readFile(t, path); got != durable {
		t.Fatalf("refused record left %q on disk", got)
	}
	if err := appendNext(l, s); err != nil {
		t.Fatalf("append after rollbacks: %v", err)
	}
	l.Close()
	l2, s2 := open(t, path, "PSDJ1 ")
	defer l2.Close()
	if len(s2.recs) != 2 || s2.recs[1].Seq != 2 {
		t.Fatalf("replayed %+v, want seq 1, 2", s2.recs)
	}
}

// TestFailedRollbackLatchesBroken pins the latch: when the rollback itself
// fails, the tail is unknown, so every later Append is refused without
// touching the file, and a reopen recovers the durable prefix.
func TestFailedRollbackLatchesBroken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, s := open(t, path, "PSDL1 ")
	if err := appendNext(l, s); err != nil {
		t.Fatal(err)
	}
	boom, stuck := errors.New("injected write"), errors.New("injected truncate")
	ff := &faultyFile{file: l.f, writeErr: boom, truncErr: stuck}
	l.f = ff
	err := appendNext(l, s)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), stuck.Error()) {
		t.Fatalf("append = %v, want the write failure and the rollback failure", err)
	}
	ff.writeErr, ff.truncErr = nil, nil
	if err := appendNext(l, s); err == nil || !strings.Contains(err.Error(), "offline") {
		t.Fatalf("append on a broken log = %v, want offline", err)
	}
	if ff.writes != 1 {
		t.Fatalf("broken log wrote %d times, want 1 (only the failed append)", ff.writes)
	}
	l.Close()
	l2, s2 := open(t, path, "PSDL1 ")
	defer l2.Close()
	if len(s2.recs) != 1 {
		t.Fatalf("reopen replayed %d records, want 1", len(s2.recs))
	}
	if err := appendNext(l2, s2); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// FuzzReplay pins replay over arbitrary bytes: it never panics, a failed
// open leaves the file untouched, and a successful one keeps a prefix of
// the input made only of lines whose frame checks out, one applied record
// per kept line, with at most one line dropped after them.
func FuzzReplay(f *testing.F) {
	const prefix = "PSDL1 "
	frame := func(payload string) string {
		return fmt.Sprintf("%s%016x %s\n", prefix, crc64.Checksum([]byte(payload), crc64.MakeTable(crc64.ECMA)), payload)
	}
	good := frame(`{"seq":1,"name":"a"}`) + frame(`{"seq":2,"name":"b"}`)
	f.Add([]byte(good))
	f.Add([]byte(good[:len(good)-7]))
	f.Add([]byte(strings.Replace(good, `"a"`, `"A"`, 1)))
	f.Add([]byte(frame(`not json`)))
	f.Add([]byte(prefix + "00000000000000000\n"))
	f.Add([]byte{})
	tab := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var applied int
		l, err := Open(path, prefix, func(json.RawMessage) error { applied++; return nil })
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(kept, data) {
				t.Fatalf("failed open (%v) modified the log", err)
			}
			return
		}
		l.Close()
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("kept %q is not a prefix of the input %q", kept, data)
		}
		if n := bytes.Count(data[len(kept):], []byte("\n")); n > 1 {
			t.Fatalf("dropped %d lines, at most the torn last one may go", n)
		}
		lines := bytes.SplitAfter(kept, []byte("\n"))
		lines = lines[:len(lines)-1] // kept ends on a line boundary
		if len(lines) != applied {
			t.Fatalf("kept %d lines but applied %d records", len(lines), applied)
		}
		for _, line := range lines {
			rest, ok := bytes.CutPrefix(line, []byte(prefix))
			if !ok || len(rest) < crcDigits+2 || rest[crcDigits] != ' ' {
				t.Fatalf("kept a badly framed line %q", line)
			}
			want, err := strconv.ParseUint(string(rest[:crcDigits]), 16, 64)
			payload := rest[crcDigits+1 : len(rest)-1]
			if err != nil || crc64.Checksum(payload, tab) != want {
				t.Fatalf("applied a line whose CRC fails: %q", line)
			}
		}
	})
}
