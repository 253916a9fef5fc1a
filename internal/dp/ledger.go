package dp

import (
	"fmt"
	"sync"
	"time"

	"psd/internal/recordlog"
)

// Ledger is a durable, per-name privacy-budget journal: the persistence
// layer under Accountant for deployments that publish repeatedly. Every
// Charge is appended to a checksummed journal file and fsync'd BEFORE it
// returns, so a caller that charges-then-publishes can guarantee the spend
// is on disk before the artifact becomes visible — a crash between charge
// and publish leaves the ledger over-counting (an unpublished epoch), never
// under-counting, which is the safe direction for a privacy budget.
//
// The journal is a recordlog with one line per charge
//
//	PSDL1 <crc64-hex> <json>\n
//
// Opening a ledger replays it into one Accountant per name (all sharing the
// configured per-name budget). A torn final line is truncated away;
// corruption before the final line means acknowledged spend records are
// unreadable, and the open fails loudly rather than silently under-count.
type Ledger struct {
	mu     sync.Mutex
	log    *recordlog.Log[LedgerRecord]
	budget float64
	seq    uint64
	accts  map[string]*Accountant
	labels map[string]map[string]bool
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
	l := &Ledger{
		budget: budget,
		accts:  make(map[string]*Accountant),
		labels: make(map[string]map[string]bool),
	}
	log, err := recordlog.Open(path, ledgerLinePrefix, l.apply)
	if err != nil {
		return nil, fmt.Errorf("dp: ledger: %w", err)
	}
	l.log = log
	return l, nil
}

// apply admits one record into the in-memory state: every replayed record,
// and every new charge once it is durable.
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
// failure the journal is rolled back to its last durable record, the charge
// is not counted, and the error tells the caller to abort the publication;
// if even the rollback fails, every further charge is refused until a
// reopen replays the disk. Either way the durable ledger never under-counts
// the ε of anything published.
func (l *Ledger) Charge(name, label string, eps float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.acct(name); !a.CanCharge(eps) {
		// Refused: Charge on the accountant reports the detailed reason and
		// records nothing.
		return a.Charge(label, eps)
	}
	rec := LedgerRecord{Seq: l.seq + 1, Name: name, Label: label, Eps: eps, At: time.Now().UTC()} //lint:allow determinism -- ledger timestamps are audit metadata on the durable journal, never release bytes
	if err := l.log.Append(rec); err != nil {
		return fmt.Errorf("dp: ledger charge failed (nothing charged, abort the publication): %w", err)
	}
	return nil
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
	return l.log.Close()
}
