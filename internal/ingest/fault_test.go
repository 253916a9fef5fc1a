package ingest

import (
	"errors"
	iofs "io/fs"
	"path/filepath"
	"testing"

	"psd/internal/serve/faultfs"
)

// The WAL fault suite drives the write path through faultfs: torn writes
// (prefix reaches the disk), failed fsyncs, and refused rotation renames —
// each deterministic, each asserting the acknowledgment contract: a failed
// Append acknowledges nothing, a successful one survives any subsequent
// crash.

var errInjected = errors.New("injected fault")

func TestWALTornWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	w, _, err := OpenWAL(dir, ffs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testPoints(3, 1)); err != nil {
		t.Fatal(err)
	}
	// The next append tears 10 bytes in: the prefix reaches the disk, the
	// call fails, and the rollback truncates the tear away.
	seg := filepath.Join(dir, segName(1))
	ffs.Set(seg, faultfs.Fault{WriteErr: errInjected, WriteErrAfter: 10, Times: 1})
	// The fault binds at open time, so reopen the handle through the fault.
	w.Close()
	w, pts, err := OpenWAL(dir, ffs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("replay before fault: %d points", len(pts))
	}
	if err := w.Append(testPoints(2, 2)); err == nil {
		t.Fatal("torn append reported success")
	}
	if w.Count() != 3 {
		t.Fatalf("Count after failed append = %d, want 3", w.Count())
	}
	if w.Broken() != nil {
		t.Fatalf("WAL broken after a clean rollback: %v", w.Broken())
	}
	// The log keeps working in-process…
	if err := w.Append(testPoints(2, 3)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	w.Close()
	// …and replay sees exactly the acknowledged points.
	w2, pts, err := OpenWAL(dir, faultfs.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(pts) != 5 {
		t.Fatalf("replayed %d points, want 5 (3 acked + 2 post-rollback)", len(pts))
	}
}

func TestWALSyncFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	w, _, err := OpenWAL(dir, ffs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testPoints(2, 1)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	ffs.Set(seg, faultfs.Fault{SyncErr: errInjected, Times: 1})
	w.Close()
	w, _, err = OpenWAL(dir, ffs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testPoints(4, 2)); err == nil {
		t.Fatal("append with failed fsync reported success")
	}
	if w.Count() != 2 {
		t.Fatalf("Count = %d, want 2 (unsynced bytes are unacknowledged)", w.Count())
	}
	if err := w.Append(testPoints(1, 3)); err != nil {
		t.Fatalf("append after sync-failure rollback: %v", err)
	}
	w.Close()
	w2, pts, err := OpenWAL(dir, faultfs.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(pts) != 3 {
		t.Fatalf("replayed %d points, want 3", len(pts))
	}
}

func TestWALRotationRenameFailureRetries(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	// 128-byte segments: rotation fires on the second 4-point append.
	w, _, err := OpenWAL(dir, ffs, 128)
	if err != nil {
		t.Fatal(err)
	}
	tmp2 := filepath.Join(dir, ".wal-0000000000000002.tmp")
	ffs.Set(tmp2, faultfs.Fault{RenameErr: errInjected, Times: 1})
	if err := w.Append(testPoints(4, 1)); err != nil {
		t.Fatal(err)
	}
	// This append fills the segment; the rotation rename refuses. The
	// append itself must still succeed — the points are durable.
	if err := w.Append(testPoints(4, 2)); err != nil {
		t.Fatalf("append must not fail on a rotation failure: %v", err)
	}
	if w.Segments() != 1 {
		t.Fatalf("rotation should have failed, but Segments = %d", w.Segments())
	}
	// The next append retries the rotation (fault healed after one shot).
	if err := w.Append(testPoints(4, 3)); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 2 {
		t.Fatalf("rotation retry did not happen: Segments = %d", w.Segments())
	}
	w.Close()
	w2, pts, err := OpenWAL(dir, faultfs.New(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(pts) != 12 {
		t.Fatalf("replayed %d points, want 12", len(pts))
	}
}

// failTruncFS makes self-healing truncation itself fail, driving the WAL
// into its terminal broken state.
type failTruncFS struct {
	FS
	err error
}

func (f failTruncFS) Truncate(name string, size int64) error { return f.err }

func TestWALBrokenWhenRollbackFails(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	w, _, err := OpenWAL(dir, failTruncFS{FS: ffs, err: errInjected}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testPoints(2, 1)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	ffs.Set(seg, faultfs.Fault{SyncErr: errInjected, Times: 1})
	w.Close()
	w, _, err = OpenWAL(dir, failTruncFS{FS: ffs, err: errInjected}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testPoints(2, 2)); err == nil {
		t.Fatal("append with failed fsync reported success")
	}
	if w.Broken() == nil {
		t.Fatal("WAL must be broken when the rollback truncate fails")
	}
	if err := w.Append(testPoints(1, 3)); err == nil {
		t.Fatal("broken WAL accepted an append")
	}
	w.Close()
	// Reopening through a healthy filesystem recovers: the unacknowledged
	// tail (possibly flushed by the kernel despite the failed fsync) is at
	// worst a complete frame; recovery keeps acknowledged data.
	w2, pts, err := OpenWAL(dir, faultfs.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(pts) < 2 {
		t.Fatalf("replayed %d points, want at least the 2 acknowledged", len(pts))
	}
	if err := w2.Append(testPoints(1, 4)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestVerifyMissingArtifacts pins the audit's rule for artifacts it cannot
// open, through the FS seam: artifacts prune removed (the oldest ones,
// never the latest) are pruned and OK whatever Keep the audit runs with; a
// missing latest artifact, or one missing above a surviving one, is not
// OK; any other open failure is an error, never a pass.
func TestVerifyMissingArtifacts(t *testing.T) {
	ffs := faultfs.New()
	cfg := testConfig(t, t.TempDir())
	cfg.FS = ffs
	cfg.Keep = 3
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustIngest(t, in, testPoints(20, float64(i)))
		if _, err := in.Publish(TriggerManual); err != nil {
			t.Fatal(err)
		}
	}
	path := func(v int) string { return in.artifactPath(v) }
	missing := func(v int) {
		ffs.Set(path(v), faultfs.Fault{OpenErr: &iofs.PathError{Op: "open", Path: path(v), Err: iofs.ErrNotExist}})
	}
	verify := func(what string) []VersionCheck {
		t.Helper()
		checks, err := in.Verify()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return checks
	}
	intact := func(what string) {
		t.Helper()
		for _, c := range verify(what) {
			pruned := c.Version <= 2 // latest 5, Keep 3: prune removed v1, v2
			if !c.OK || c.Pruned != pruned || (c.ArtifactCRC == "") != pruned {
				t.Fatalf("%s: %+v (want OK, pruned=%v)", what, c, pruned)
			}
		}
	}
	intact("Keep 3")

	// The audit runs without the daemon's -keep (the documented
	// `psdingest verify` does): what prune removed still passes.
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Keep = 0
	if in, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	intact("reopened with Keep 0")

	// The latest version's artifact goes missing: prune never removes it,
	// so it fails the audit instead of passing as pruned.
	missing(5)
	if c := verify("missing latest")[4]; c.Version != 5 || c.OK || c.Pruned {
		t.Fatalf("missing latest artifact: %+v, want !OK and not pruned", c)
	}
	ffs.Clear(path(5))

	// A hole above a surviving artifact is not a prune either.
	missing(4)
	checks := verify("missing v4")
	if c := checks[3]; c.Version != 4 || c.OK || c.Pruned {
		t.Fatalf("missing v4 above the surviving v3: %+v, want !OK and not pruned", c)
	}
	if c := checks[2]; !c.OK || c.Pruned {
		t.Fatalf("v3 below the missing v4: %+v", c)
	}
	ffs.Clear(path(4))

	// An artifact that exists but cannot be opened is an error.
	ffs.Set(path(3), faultfs.Fault{OpenErr: errInjected})
	if _, err := in.Verify(); !errors.Is(err, errInjected) {
		t.Fatalf("unreadable artifact: Verify err = %v, want the open error", err)
	}
}
