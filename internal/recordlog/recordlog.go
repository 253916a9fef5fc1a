// Package recordlog is the framed, append-only record log under the privacy
// ledger and the publish journal. Each record is one line
//
//	<prefix><crc64-hex> <json>\n
//
// where prefix names the log ("PSDL1 ", "PSDJ1 "), the checksum is
// CRC-64/ECMA over the JSON bytes as 16 lower-case hex digits, and the JSON
// is the encoded record.
//
// Open replays the file through the owner's apply function. A torn or
// checksum-failing final line (the shape a crash mid-append leaves) is
// truncated away; a bad line with complete records after it means
// acknowledged records are unreadable, and the open fails loudly. Append
// makes a record durable (write, fsync) and then applies it with the same
// function replay uses, so the open log never runs ahead of, or behind, the
// disk. A failed write or sync is rolled back to the last durable record; if
// even the rollback fails, the log latches broken until a reopen.
package recordlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"psd/internal/atomicfile"
	"psd/internal/checksum"
)

// crcDigits is the width of the checksum field.
const crcDigits = 16

// file is the handle a Log writes through: *os.File in production, a
// fault-injecting wrapper in tests.
type file interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an open record log of T. It is not internally locked: its owner
// serializes Append.
type Log[T any] struct {
	path   string
	prefix string
	apply  func(T) error
	f      file
	// off is the durable end of the log: every successful Append advances
	// it and every failed one rolls the file back to it, so the on-disk
	// record sequence never gaps.
	off int64
	// broken, once set, refuses further appends: a failed append could not
	// be rolled back, so the tail is in an unknown state.
	broken error
}

// Open opens (creating if absent) the log at path, makes its directory entry
// durable, and replays every record through apply. An apply error fails the
// open: a record the owner refuses on replay is a corrupt history, not a
// torn tail.
func Open[T any](path, prefix string, apply func(T) error) (*Log[T], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log[T]{path: path, prefix: prefix, apply: apply, f: f}
	if err := l.replay(); err != nil {
		_ = f.Close() // the replay error wins; nothing was appended
		return nil, err
	}
	return l, nil
}

// replay applies every valid line, truncates a torn tail, and fsyncs the
// parent directory so a freshly created log cannot vanish after records
// were acknowledged into it.
func (l *Log[T]) replay() error {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return err
	}
	valid := 0
	for len(data) > valid {
		rest := data[valid:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // no newline: a torn final line
		}
		rec, err := l.parse(rest[:nl])
		if err != nil {
			// A bad line can only be the torn or bit-flipped tail of the
			// last append, unless complete records follow it.
			if bytes.IndexByte(rest[nl+1:], '\n') >= 0 {
				return fmt.Errorf("%s: corrupt at byte %d (records follow): %v", l.path, valid, err)
			}
			break
		}
		if err := l.apply(rec); err != nil {
			return fmt.Errorf("%s: replay at byte %d: %w", l.path, valid, err)
		}
		valid += nl + 1
	}
	l.off = int64(valid)
	if l.off < int64(len(data)) {
		if err := l.f.Truncate(l.off); err != nil {
			return fmt.Errorf("%s: truncating torn tail: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("%s: syncing truncated tail: %w", l.path, err)
		}
	}
	if err := atomicfile.SyncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("%s: syncing its directory: %w", l.path, err)
	}
	return nil
}

// parse validates one framed line (without its newline) and decodes it. A
// line whose JSON does not decode is as bad as one whose checksum fails.
func (l *Log[T]) parse(line []byte) (T, error) {
	var rec T
	rest, ok := bytes.CutPrefix(line, []byte(l.prefix))
	if !ok {
		return rec, fmt.Errorf("bad line prefix")
	}
	if len(rest) <= crcDigits || rest[crcDigits] != ' ' {
		return rec, fmt.Errorf("bad checksum field")
	}
	want, err := strconv.ParseUint(string(rest[:crcDigits]), 16, 64)
	if err != nil {
		return rec, fmt.Errorf("bad checksum: %v", err)
	}
	payload := rest[crcDigits+1:]
	if checksum.Checksum(payload, checksum.ECMA) != want {
		return rec, fmt.Errorf("checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record json: %v", err)
	}
	return rec, nil
}

// Append makes rec durable and then applies it. On a failed write or sync
// the tail is rolled back to the last durable record (the bytes may or may
// not have reached the disk; truncating restores a known state) and nothing
// is applied. If apply refuses the record, it is rolled back the same way,
// so the disk never holds a record the next replay would refuse. If a
// rollback fails, the log latches broken and refuses every later Append.
func (l *Log[T]) Append(rec T) error {
	if l.broken != nil {
		return fmt.Errorf("%s: offline after an unrecovered append failure (reopen to recover): %w", l.path, l.broken)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: encoding record: %w", l.path, err)
	}
	line := fmt.Appendf(nil, "%s%016x %s\n", l.prefix, checksum.Checksum(payload, checksum.ECMA), payload)
	if _, err := l.f.WriteAt(line, l.off); err != nil {
		return l.rollback(fmt.Errorf("%s: append: %w", l.path, err))
	}
	if err := l.f.Sync(); err != nil {
		return l.rollback(fmt.Errorf("%s: sync: %w", l.path, err))
	}
	if err := l.apply(rec); err != nil {
		return l.rollback(fmt.Errorf("%s: record refused: %w", l.path, err))
	}
	l.off += int64(len(line))
	return nil
}

// rollback truncates the file back to the last durable record and makes the
// truncation durable, latching broken if either step fails.
func (l *Log[T]) rollback(cause error) error {
	if err := l.f.Truncate(l.off); err != nil {
		l.broken = fmt.Errorf("%w (and tail rollback failed: %v)", cause, err)
		return l.broken
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("%w (and tail rollback sync failed: %v)", cause, err)
		return l.broken
	}
	return cause
}

// Close releases the file handle.
func (l *Log[T]) Close() error { return l.f.Close() }
