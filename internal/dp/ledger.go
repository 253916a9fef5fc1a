package dp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"psd/internal/checksum"
)

// Ledger is a durable, per-name privacy-budget journal: the persistence
// layer under Accountant for deployments that publish repeatedly. Every
// Charge is appended to a checksummed journal file and fsync'd BEFORE it
// returns, so a caller that charges-then-publishes can guarantee the spend
// is on disk before the artifact becomes visible — a crash between charge
// and publish leaves the ledger over-counting (an unpublished epoch), never
// under-counting, which is the safe direction for a privacy budget.
//
// The journal is append-only; each record is one line
//
//	PSDL1 <crc64-hex> <json>\n
//
// with the CRC-64/ECMA taken over the JSON bytes. Opening a ledger replays
// the journal into one Accountant per name (all sharing the configured
// per-name budget). A torn or corrupt final line — the shape a crash
// mid-append leaves — is truncated away; corruption before the final line
// means acknowledged spend records are unreadable, and the open fails loudly
// rather than silently under-count.
type Ledger struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	budget float64
	seq    uint64
	// off is the durable end of the journal — the offset every successful
	// append advances and every failed append rolls the file back to, so the
	// on-disk record sequence never gaps.
	off    int64
	accts  map[string]*Accountant
	labels map[string]map[string]bool
	// broken, once set, refuses further charges: a failed append could not
	// be rolled back, so the journal tail is in an unknown state and a
	// further append could write a gapped or duplicate seq that the next
	// open would refuse to replay. Reopening recovers.
	broken error
}

// LedgerRecord is the JSON shape of one journal line.
type LedgerRecord struct {
	Seq   uint64    `json:"seq"`
	Name  string    `json:"name"`
	Label string    `json:"label"`
	Eps   float64   `json:"eps"`
	At    time.Time `json:"at"`
}

const ledgerLinePrefix = "PSDL1 "

// OpenLedger opens (creating if absent) the journal at path and replays it.
// budget is the per-name ε budget every replayed and future charge is
// admitted against.
func OpenLedger(path string, budget float64) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		path:   path,
		f:      f,
		budget: budget,
		accts:  make(map[string]*Accountant),
		labels: make(map[string]map[string]bool),
	}
	if err := l.replay(); err != nil {
		_ = f.Close() // the replay error wins; nothing was written yet
		return nil, err
	}
	return l, nil
}

// replay reads the whole journal, validates each framed line, applies the
// charges, and truncates a torn tail.
func (l *Ledger) replay() error {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return err
	}
	valid := 0
	for len(data) > valid {
		rest := data[valid:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// No newline: a torn final line (crash mid-append). Truncate.
			break
		}
		line := rest[:nl]
		rec, err := parseLedgerLine(line)
		if err != nil {
			// A framed line that fails its checksum can only be the torn or
			// bit-flipped tail of the last append — unless complete records
			// follow it, which would mean acknowledged spend is unreadable.
			if bytes.IndexByte(rest[nl+1:], '\n') >= 0 {
				return fmt.Errorf("dp: ledger %s corrupt at byte %d (records follow): %v", l.path, valid, err)
			}
			break
		}
		if err := l.apply(rec); err != nil {
			return fmt.Errorf("dp: ledger %s replay: %w", l.path, err)
		}
		valid += nl + 1
	}
	if valid < len(data) {
		if err := l.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("dp: ledger %s: truncating torn tail: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(int64(valid), 0); err != nil {
		return err
	}
	l.off = int64(valid)
	return nil
}

// parseLedgerLine validates one framed journal line.
func parseLedgerLine(line []byte) (LedgerRecord, error) {
	var rec LedgerRecord
	if !bytes.HasPrefix(line, []byte(ledgerLinePrefix)) {
		return rec, fmt.Errorf("bad line prefix")
	}
	rest := line[len(ledgerLinePrefix):]
	sp := bytes.IndexByte(rest, ' ')
	if sp != 16 {
		return rec, fmt.Errorf("bad checksum field")
	}
	var want uint64
	if _, err := fmt.Sscanf(string(rest[:sp]), "%016x", &want); err != nil {
		return rec, fmt.Errorf("bad checksum: %v", err)
	}
	payload := rest[sp+1:]
	if checksum.Checksum(payload, checksum.ECMA) != want {
		return rec, fmt.Errorf("checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record json: %v", err)
	}
	return rec, nil
}

// apply admits one replayed record into the in-memory state.
func (l *Ledger) apply(rec LedgerRecord) error {
	if rec.Name == "" || rec.Seq != l.seq+1 {
		return fmt.Errorf("record %d out of sequence (want %d) or unnamed", rec.Seq, l.seq+1)
	}
	if err := l.acct(rec.Name).Charge(rec.Label, rec.Eps); err != nil {
		// A recorded spend is a fact; replay must never drop it, even if it
		// exceeds the (possibly re-configured, smaller) budget. Force it in:
		// the accountant refuses only prospective charges, so re-create the
		// over-budget state explicitly.
		a := l.acct(rec.Name)
		a.spent, a.comp = neumaierAdd(a.spent, a.comp, rec.Eps)
		a.items = append(a.items, Charge{Label: rec.Label, Eps: rec.Eps})
	}
	set := l.labels[rec.Name]
	if set == nil {
		set = make(map[string]bool)
		l.labels[rec.Name] = set
	}
	set[rec.Label] = true
	l.seq = rec.Seq
	return nil
}

func (l *Ledger) acct(name string) *Accountant {
	a := l.accts[name]
	if a == nil {
		a = NewAccountant(l.budget)
		l.accts[name] = a
	}
	return a
}

// Charge admits an eps-DP publication of name against its budget and makes
// it durable: the record is appended and fsync'd before Charge returns nil,
// and only then is the in-memory state (seq, accountant, labels) advanced —
// so the open ledger never runs ahead of the disk and a later successful
// charge can never write a gapped seq the next open would refuse to replay.
// On a refused charge nothing is recorded anywhere. On an append or sync
// FAILURE the journal tail is rolled back to the pre-call offset (the bytes
// may or may not have reached the disk; truncating restores a known state),
// the charge is not counted, and the error tells the caller to abort the
// publication. If even the rollback fails the ledger latches a broken state
// that refuses every further charge until a reopen replays the disk — the
// invariant either way is that the durable ledger never under-counts the ε
// of anything published.
func (l *Ledger) Charge(name, label string, eps float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("dp: ledger is offline after an unrecovered append failure (reopen to recover): %w", l.broken)
	}
	a := l.acct(name)
	if !a.CanCharge(eps) {
		// Refused: Charge on the accountant reports the detailed reason and
		// records nothing.
		return a.Charge(label, eps)
	}
	rec := LedgerRecord{Seq: l.seq + 1, Name: name, Label: label, Eps: eps, At: time.Now().UTC()} //lint:allow determinism -- ledger timestamps are audit metadata on the durable journal, never release bytes
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dp: ledger: encoding record: %w", err)
	}
	line := fmt.Sprintf("%s%016x %s\n", ledgerLinePrefix, checksum.Checksum(payload, checksum.ECMA), payload)
	if _, err := l.f.WriteString(line); err != nil {
		return l.rollbackTail(fmt.Errorf("dp: ledger append failed (nothing charged, abort the publication): %w", err))
	}
	if err := l.f.Sync(); err != nil {
		return l.rollbackTail(fmt.Errorf("dp: ledger sync failed (nothing charged, abort the publication): %w", err))
	}
	l.off += int64(len(line))
	l.seq = rec.Seq
	if err := a.Charge(label, eps); err != nil {
		// Unreachable: CanCharge admitted the same eps under the same lock.
		return err
	}
	set := l.labels[name]
	if set == nil {
		set = make(map[string]bool)
		l.labels[name] = set
	}
	set[label] = true
	return nil
}

// rollbackTail restores the journal to the last durable record boundary
// after a failed append: truncate back to off, make the truncation durable,
// and reposition the write offset. If any of that fails the tail is in an
// unknown state and the ledger latches broken — a further append could
// produce a gapped or duplicate seq, which the next open would (rightly)
// refuse to replay.
func (l *Ledger) rollbackTail(cause error) error {
	if err := l.f.Truncate(l.off); err != nil {
		l.broken = fmt.Errorf("%w (and tail rollback failed: %v)", cause, err)
		return l.broken
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("%w (and tail rollback sync failed: %v)", cause, err)
		return l.broken
	}
	if _, err := l.f.Seek(l.off, 0); err != nil {
		l.broken = fmt.Errorf("%w (and seek after rollback failed: %v)", cause, err)
		return l.broken
	}
	return cause
}

// CanCharge reports whether a Charge of eps for name would be admitted,
// without recording anything — the publisher's pre-flight check, so a
// budget-exhausted refusal costs no journal growth.
func (l *Ledger) CanCharge(name string, eps float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acct(name).CanCharge(eps)
}

// Charged reports whether a charge with the given label was already
// recorded for name — the recovery-idempotency lookup: a crashed publisher
// that already charged its epoch must complete the publication without
// charging again.
func (l *Ledger) Charged(name, label string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.labels[name][label]
}

// Spent returns the total ε recorded for name.
func (l *Ledger) Spent(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.accts[name]; a != nil {
		return a.Spent()
	}
	return 0
}

// Remaining returns name's unspent budget (never negative).
func (l *Ledger) Remaining(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.accts[name]; a != nil {
		return a.Remaining()
	}
	return l.budget
}

// Budget returns the per-name budget.
func (l *Ledger) Budget() float64 { return l.budget }

// Charges returns the recorded charges for name, in order.
func (l *Ledger) Charges(name string) []Charge {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.accts[name]; a != nil {
		return a.Charges()
	}
	return nil
}

// Close releases the journal file handle.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
