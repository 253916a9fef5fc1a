// Package ingest is the streaming-ingest tier: a crash-safe write-ahead log
// of incoming points, a durable publish journal, and the orchestration that
// turns a continuously-growing point stream into versioned, privacy-charged
// release artifacts (the continual-observation regime — points arrive
// forever, releases are republished on a cadence, and every publication is
// charged to a persistent ε ledger BEFORE it becomes visible).
//
// The headline guarantee is kill-recovery: SIGKILL at any instant —
// mid-append, mid-rotation, mid-rebuild, mid-charge, mid-publish — must
// recover to a state where replaying the WAL reproduces every published
// release byte-identically (builds are deterministic per seed), no
// acknowledged point is lost, and the ledger never under-counts ε spent.
package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"psd"
	"psd/internal/checksum"
)

// WAL segment format. A WAL is a directory of segment files
//
//	wal-<seq 16-digit decimal>.seg
//
// each laid out as
//
//	header:  magic "PSDWAL1\0" | u64 LE seq | u64 LE firstIndex
//	frames:  u32 LE payloadLen | payload | u64 LE CRC-64/ECMA(lenField‖payload)
//
// where a payload is 1..maxFramePoints points of 16 bytes each (LE float64
// x, y) and firstIndex is the number of points in all earlier segments (a
// replay cross-check). Every Append writes whole frames and fsyncs before
// acknowledging, so after a crash the durable prefix of the last segment is
// exactly the acknowledged stream; a torn or bit-flipped tail fails its
// frame checksum and is truncated away on recovery. Segments are created
// with the atomicfile rename discipline — header written and fsync'd into a
// dot-hidden temp file, renamed into place, directory fsync'd — so a
// visible segment always carries a complete, valid header.
const (
	segMagic        = "PSDWAL1\x00"
	segHeaderLen    = 24
	pointLen        = 16
	frameLenBytes   = 4
	frameCRCBytes   = 8
	maxFramePoints  = 65536
	maxFramePayload = maxFramePoints * pointLen

	// DefaultMaxSegmentBytes rotates segments at 16 MiB (~1M points each).
	DefaultMaxSegmentBytes = 16 << 20
)

// WAL is an open write-ahead log: an append handle on the active segment
// plus the replayed totals. It is NOT internally locked — the Ingester
// serializes access (and tests that need concurrency wrap it).
type WAL struct {
	dir         string
	fs          FS
	maxSegBytes int64

	seg      *syncWriter
	segPath  string
	segSeq   uint64
	segBytes int64
	// prevBytes is the total size of all sealed (non-active) segments.
	prevBytes int64
	count     uint64
	// broken, once set, refuses further appends: the log's tail could not
	// be restored to a frame boundary after a failed write, so nothing
	// further can be safely acknowledged. Reopening recovers.
	broken error
	// frameBuf is the reusable frame-encoding scratch.
	frameBuf []byte
}

// segName returns the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// OpenWAL opens (creating if needed) the WAL in dir, replaying every
// acknowledged point. Recovery truncates a torn FRAME tail of the last
// segment (the shape a crash mid-append leaves), removes leftover rotation
// temp files, and verifies segment contiguity and per-segment first-index
// cross-checks — corruption anywhere else, including a damaged or
// inconsistent header of the last segment (headers are fsync'd before the
// rename that makes a segment visible, so header damage is never a crash
// artifact), means acknowledged data is unreadable and fails loudly. fsys
// nil means the real filesystem; maxSegBytes <= 0 selects
// DefaultMaxSegmentBytes.
func OpenWAL(dir string, fsys FS, maxSegBytes int64) (*WAL, []psd.Point, error) {
	if fsys == nil {
		fsys = osFS{}
	}
	if maxSegBytes <= 0 {
		maxSegBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	w := &WAL{dir: dir, fs: fsys, maxSegBytes: maxSegBytes}

	// Leftover rotation temp files are invisible to the segment glob and
	// carry nothing acknowledged; clear them.
	if tmps, err := fsys.Glob(filepath.Join(dir, ".wal-*.tmp")); err == nil {
		for _, t := range tmps {
			_ = fsys.Remove(t)
		}
	}

	paths, err := fsys.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		if err := w.createSegment(1, 0); err != nil {
			return nil, nil, err
		}
		return w, nil, nil
	}

	var points []psd.Point
	for i, path := range paths {
		last := i == len(paths)-1
		wantSeq := uint64(i + 1)
		if filepath.Base(path) != segName(wantSeq) {
			return nil, nil, fmt.Errorf("ingest: wal segment gap: found %s, want %s", filepath.Base(path), segName(wantSeq))
		}
		pts, valid, derr := w.readSegment(path, wantSeq, w.count)
		if derr != nil {
			if !last {
				return nil, nil, fmt.Errorf("ingest: wal segment %s corrupt mid-log (acknowledged data unreadable): %w", path, derr)
			}
			if valid < segHeaderLen {
				// The header never decoded: a bad magic, a short file, or a
				// seq/first-index mismatch. Headers are written and fsync'd
				// before the rename that makes a segment visible, so none of
				// these is a crash artifact — truncating here would zero the
				// segment (dropping its header) and silently discard any
				// acknowledged appends behind the damage. Fail loudly instead.
				return nil, nil, fmt.Errorf("ingest: wal segment %s has an unreadable or inconsistent header (not a crash artifact; refusing to truncate): %w", path, derr)
			}
			// Torn tail of the active segment: truncate back to the last
			// complete frame. The bytes being dropped were never
			// acknowledged (acks happen after fsync of a complete frame).
			if err := fsys.Truncate(path, valid); err != nil {
				return nil, nil, fmt.Errorf("ingest: truncating torn wal tail of %s: %w", path, err)
			}
		}
		points = append(points, pts...)
		w.count += uint64(len(pts))
		if last {
			w.segSeq = wantSeq
			w.segPath = path
			w.segBytes = valid
		} else {
			w.prevBytes += valid
		}
	}
	seg, err := openSync(w.fs, w.segPath)
	if err != nil {
		return nil, nil, err
	}
	w.seg = seg
	return w, points, nil
}

// readSegment decodes one segment, returning its points and the byte length
// of the valid prefix (header + complete frames). A non-nil error reports
// where decoding stopped; for the last segment the caller truncates there.
func (w *WAL) readSegment(path string, wantSeq, wantFirst uint64) (pts []psd.Point, valid int64, err error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	seq, first, err := parseSegmentHeader(data)
	if err != nil {
		// Headers are written and fsync'd before the rename that makes a
		// segment visible, so a bad header is never a crash artifact.
		return nil, 0, fmt.Errorf("ingest: %s: %w", path, err)
	}
	if seq != wantSeq || first != wantFirst {
		return nil, 0, fmt.Errorf("ingest: %s: header says seq=%d first=%d, replay expects seq=%d first=%d",
			path, seq, first, wantSeq, wantFirst)
	}
	pts, n, derr := decodeFrames(data[segHeaderLen:])
	valid = segHeaderLen + int64(n)
	if derr != nil {
		return pts, valid, fmt.Errorf("at byte %d: %w", valid, derr)
	}
	return pts, valid, nil
}

// parseSegmentHeader validates the 24-byte segment header.
func parseSegmentHeader(data []byte) (seq, firstIndex uint64, err error) {
	if len(data) < segHeaderLen {
		return 0, 0, fmt.Errorf("segment shorter than its header (%d bytes)", len(data))
	}
	if string(data[:8]) != segMagic {
		return 0, 0, fmt.Errorf("bad segment magic %q", data[:8])
	}
	return binary.LittleEndian.Uint64(data[8:16]), binary.LittleEndian.Uint64(data[16:24]), nil
}

// decodeFrames scans a segment's frame region, returning every point of
// every complete, checksum-valid frame and the byte count of that valid
// prefix. err is nil iff the region ends exactly on a frame boundary;
// otherwise it describes the torn or corrupt tail (whose bytes are NOT
// counted in valid).
func decodeFrames(data []byte) (pts []psd.Point, valid int, err error) {
	for valid < len(data) {
		rest := data[valid:]
		if len(rest) < frameLenBytes {
			return pts, valid, fmt.Errorf("torn frame length (%d bytes)", len(rest))
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		if plen == 0 || plen > maxFramePayload || plen%pointLen != 0 {
			return pts, valid, fmt.Errorf("bad frame payload length %d", plen)
		}
		total := frameLenBytes + plen + frameCRCBytes
		if len(rest) < total {
			return pts, valid, fmt.Errorf("torn frame (%d of %d bytes)", len(rest), total)
		}
		want := binary.LittleEndian.Uint64(rest[frameLenBytes+plen:])
		if checksum.Checksum(rest[:frameLenBytes+plen], checksum.ECMA) != want {
			return pts, valid, fmt.Errorf("frame checksum mismatch")
		}
		payload := rest[frameLenBytes : frameLenBytes+plen]
		for o := 0; o < plen; o += pointLen {
			pts = append(pts, psd.Point{
				X: float64frombits(binary.LittleEndian.Uint64(payload[o:])),
				Y: float64frombits(binary.LittleEndian.Uint64(payload[o+8:])),
			})
		}
		valid += total
	}
	return pts, valid, nil
}

// encodeFrame appends one frame holding pts to buf.
func encodeFrame(buf []byte, pts []psd.Point) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)*pointLen))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, float64bits(p.Y))
	}
	return binary.LittleEndian.AppendUint64(buf, checksum.Checksum(buf[start:], checksum.ECMA))
}

// createSegment makes segment seq visible with the atomicfile rename
// discipline and makes it the active append target. The append handle is
// opened on the temp file and KEPT across the rename (the handle follows
// the file, not the name): the rename is the single commit point, so a
// rotation either fully happens or leaves the old segment active — there is
// no window where a fresh segment is visible but the writer still appends
// to the old one, which would desynchronize the new segment's first-index
// from the stream and strand acknowledged points behind it.
func (w *WAL) createSegment(seq, firstIndex uint64) error {
	final := filepath.Join(w.dir, segName(seq))
	tmp := filepath.Join(w.dir, fmt.Sprintf(".wal-%016d.tmp", seq))
	_ = w.fs.Remove(tmp)
	tw, err := openSync(w.fs, tmp)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], firstIndex)
	if _, err := tw.Write(hdr[:]); err != nil {
		_ = tw.Close() // the write error wins; the temp segment is discarded
		_ = w.fs.Remove(tmp)
		return err
	}
	if err := tw.Sync(); err != nil {
		_ = tw.Close()
		_ = w.fs.Remove(tmp)
		return err
	}
	if err := w.fs.Rename(tmp, final); err != nil {
		_ = tw.Close()
		_ = w.fs.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Best-effort on filesystems that
	// refuse directory fsync; the header bytes are already safe.
	_ = w.fs.SyncDir(w.dir)
	if w.seg != nil {
		// The outgoing segment's bytes were fsynced by the Append that
		// filled it; its close has nothing left to lose.
		_ = w.seg.Close()
		w.prevBytes += w.segBytes
	}
	w.seg, w.segPath, w.segSeq, w.segBytes = tw, final, seq, segHeaderLen
	return nil
}

// Append writes pts as one or more checksummed frames and fsyncs them.
// Only a nil return acknowledges the points: on any write or sync failure
// the tail is rolled back to the pre-call frame boundary (self-healing
// truncation), so the durable log never contains a partially-acknowledged
// batch; if even the rollback fails the WAL turns itself off (broken) —
// reopening recovers. Rotation to a fresh segment happens after a
// successful append that filled the active segment; a failed rotation is
// retried on the next append and never un-acknowledges data.
func (w *WAL) Append(pts []psd.Point) error {
	if w.broken != nil {
		return fmt.Errorf("ingest: wal is offline after an unrecovered append failure: %w", w.broken)
	}
	if len(pts) == 0 {
		return nil
	}
	buf := w.frameBuf[:0]
	for off := 0; off < len(pts); off += maxFramePoints {
		end := min(off+maxFramePoints, len(pts))
		buf = encodeFrame(buf, pts[off:end])
	}
	w.frameBuf = buf
	start := w.segBytes
	if _, err := w.seg.Write(buf); err != nil {
		return w.rollback(start, fmt.Errorf("ingest: wal append: %w", err))
	}
	if err := w.seg.Sync(); err != nil {
		// The bytes may or may not have reached the disk; either way they
		// are unacknowledged, so remove them to keep log == acked stream.
		return w.rollback(start, fmt.Errorf("ingest: wal sync: %w", err))
	}
	w.segBytes += int64(len(buf))
	w.count += uint64(len(pts))
	if w.segBytes >= w.maxSegBytes {
		// Rotation failure is not an append failure: the points are durable
		// and acknowledged; the oversized segment just keeps accepting until
		// a later rotation succeeds.
		_ = w.createSegment(w.segSeq+1, w.count)
	}
	return nil
}

// rollback restores the active segment to the pre-append frame boundary
// after a failed write or sync. If the tail cannot be restored the WAL
// marks itself broken: nothing further can be safely acknowledged until a
// reopen re-runs recovery.
func (w *WAL) rollback(to int64, cause error) error {
	_ = w.seg.Close() // cause (the failed append) wins; the tail is truncated next
	if err := w.fs.Truncate(w.segPath, to); err != nil {
		w.broken = fmt.Errorf("%w (and tail rollback failed: %v)", cause, err)
		return w.broken
	}
	seg, err := openSync(w.fs, w.segPath)
	if err != nil {
		w.broken = fmt.Errorf("%w (and reopen after rollback failed: %v)", cause, err)
		return w.broken
	}
	w.seg = seg
	return cause
}

// Count returns the total acknowledged points.
func (w *WAL) Count() uint64 { return w.count }

// Segments returns the number of visible segment files.
func (w *WAL) Segments() uint64 { return w.segSeq }

// Bytes returns the durable log size (valid bytes across all segments).
func (w *WAL) Bytes() int64 { return w.prevBytes + w.segBytes }

// Broken reports the sticky failure state, nil when healthy.
func (w *WAL) Broken() error { return w.broken }

// Close releases the active segment handle.
func (w *WAL) Close() error {
	if w.seg == nil {
		return nil
	}
	err := w.seg.Close()
	w.seg = nil
	return err
}

func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }
