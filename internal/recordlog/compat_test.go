package recordlog_test

import (
	"os"
	"path/filepath"
	"testing"

	"psd/internal/dp"
	"psd/internal/ingest"
	"psd/internal/recordlog"
)

// These are a privacy ledger and a versions journal exactly as psdingest
// wrote them before the two shared this package: existing state dirs must
// keep opening, and a record must re-encode to the very same bytes.
const (
	ledgerBytes = "PSDL1 8396313454cfc048 {\"seq\":1,\"name\":\"roads\",\"label\":\"roads@v1\",\"eps\":0.25,\"at\":\"2026-10-18T01:30:15.076428653Z\"}\n"

	journalBytes = "PSDJ1 71a671c29aad57c0 {\"seq\":1,\"version\":1,\"phase\":\"intent\",\"points\":1000,\"seed\":43,\"eps\":0.25,\"at\":\"2026-10-18T01:30:15.077251535Z\"}\n" +
		"PSDJ1 643297fd8bd5785d {\"seq\":2,\"version\":1,\"phase\":\"published\",\"crc64\":\"0123456789abcdef\",\"bytes\":4096,\"at\":\"2026-10-18T01:30:15.077633315Z\"}\n"
)

func writeState(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayLegacyLedger(t *testing.T) {
	l, err := dp.OpenLedger(writeState(t, "ledger", ledgerBytes), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Spent("roads"); got != 0.25 {
		t.Fatalf("Spent = %v, want 0.25", got)
	}
	if !l.Charged("roads", "roads@v1") {
		t.Fatal("replayed ledger lost the roads@v1 charge")
	}
	if err := l.Charge("roads", "roads@v2", 0.25); err != nil {
		t.Fatalf("charge after legacy replay: %v", err)
	}
	reencode[dp.LedgerRecord](t, "PSDL1 ", ledgerBytes)
}

func TestReplayLegacyJournal(t *testing.T) {
	j, err := ingest.OpenJournal(writeState(t, "versions.log", journalBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	latest, ok := j.Latest()
	if !ok || latest.Version != 1 || latest.Points != 1000 || latest.Seed != 43 || latest.CRC64 != "0123456789abcdef" || latest.Bytes != 4096 {
		t.Fatalf("Latest = %+v, %v; want v1 over 1000 points, seed 43, crc 0123456789abcdef, 4096 bytes", latest, ok)
	}
	if len(j.Pending()) != 0 || j.NextVersion() != 2 {
		t.Fatalf("pending %v, next version %d; want none and 2", j.Pending(), j.NextVersion())
	}
	reencode[ingest.VersionRecord](t, "PSDJ1 ", journalBytes)
}

// reencode replays legacy into records of T and appends them to a fresh log,
// which must come out byte-identical.
func reencode[T any](t *testing.T, prefix, legacy string) {
	t.Helper()
	var recs []T
	src, err := recordlog.Open(writeState(t, "src", legacy), prefix, func(r T) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	path := filepath.Join(t.TempDir(), "dst")
	dst, err := recordlog.Open(path, prefix, func(T) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := dst.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	dst.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != legacy {
		t.Fatalf("re-encoded log differs:\ngot  %q\nwant %q", got, legacy)
	}
}
