package dp

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAccountantManyEpochs pins the compensated-summation fix: a million
// epoch charges that sum to exactly the budget in real arithmetic must all
// be admitted (a naive float64 running sum drifts by ~1e-11 here, enough to
// falsely refuse the tail under an exact check), and the very next epoch
// must be refused.
func TestAccountantManyEpochs(t *testing.T) {
	const n = 1_000_000
	const eps = 1e-6
	a := NewAccountant(1.0)
	for i := 0; i < n; i++ {
		if err := a.Charge("epoch", eps); err != nil {
			t.Fatalf("epoch %d falsely refused: %v", i, err)
		}
	}
	if got := a.Spent(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Spent = %.17g, want 1.0 within 1e-12", got)
	}
	if err := a.Charge("one too many", eps); err == nil {
		t.Fatal("charge past an exhausted budget was admitted")
	}
	if len(a.Charges()) != n {
		t.Fatalf("Charges len = %d, want %d", len(a.Charges()), n)
	}
}

// TestAccountantUlpTolerance pins the tolerance at one ulp: rounding noise
// from splitting a budget is admitted, anything materially beyond it is not.
func TestAccountantUlpTolerance(t *testing.T) {
	a := NewAccountant(1.0)
	third := 1.0 / 3
	for i := 0; i < 3; i++ {
		if err := a.Charge("third", third); err != nil {
			t.Fatalf("third %d refused: %v", i, err)
		}
	}
	// 3*float64(1/3) is one ulp below 1.0; a further 1e-15 crosses the line.
	if err := a.Charge("overshoot", 1e-15); err == nil {
		t.Fatal("charge more than one ulp past the budget was admitted")
	}
	// The old check admitted up to budget*(1+1e-9)+1e-9 — real overspend.
	b := NewAccountant(1.0)
	if err := b.Charge("full", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge("sneak", 1e-10); err == nil {
		t.Fatal("sub-tolerance overspend of the old loose check must now be refused")
	}
	if err := b.Charge("nan", math.NaN()); err == nil {
		t.Fatal("NaN charge admitted")
	}
	if err := b.Charge("inf", math.Inf(1)); err == nil {
		t.Fatal("Inf charge admitted")
	}
}

func TestLedgerChargeAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("roads", "roads@v1", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("roads", "roads@v2", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("salaries", "salaries@v1", 0.9); err != nil {
		t.Fatal(err)
	}
	if got := l.Spent("roads"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Spent(roads) = %v, want 0.5", got)
	}
	if !l.Charged("roads", "roads@v2") || l.Charged("roads", "roads@v3") {
		t.Fatal("Charged lookup wrong")
	}
	if err := l.Charge("salaries", "salaries@v2", 0.2); err == nil {
		t.Fatal("over-budget charge admitted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the journal replays into identical state, and the refused
	// charge left no trace.
	l2, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Spent("roads"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("replayed Spent(roads) = %v, want 0.5", got)
	}
	if got := l2.Spent("salaries"); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("replayed Spent(salaries) = %v, want 0.9", got)
	}
	if !l2.Charged("roads", "roads@v1") || l2.Charged("salaries", "salaries@v2") {
		t.Fatal("replayed Charged lookup wrong")
	}
	if got := len(l2.Charges("roads")); got != 2 {
		t.Fatalf("replayed Charges(roads) len = %d, want 2", got)
	}
	if got := l2.Remaining("unseen"); got != 1.0 {
		t.Fatalf("Remaining(unseen) = %v, want full budget", got)
	}
}

// TestLedgerTornTail pins crash recovery: a torn final line (the shape a
// kill mid-append leaves) is truncated away and the ledger keeps working;
// the spend already durable is preserved.
func TestLedgerTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("roads", "roads@v1", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("roads", "roads@v2", 0.25); err != nil {
		t.Fatal(err)
	}
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	// Every torn prefix of the last line must recover to exactly the first
	// charge — never more, never a parse failure.
	full := lines[0] + lines[1] + "\n"
	for cut := len(lines[0]); cut < len(full); cut++ {
		if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenLedger(path, 1.0)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if got := l2.Spent("roads"); math.Abs(got-0.25) > 1e-12 {
			t.Fatalf("cut=%d: Spent = %v, want 0.25", cut, got)
		}
		// The ledger must remain appendable after tail truncation.
		if err := l2.Charge("roads", "roads@v2b", 0.1); err != nil {
			t.Fatalf("cut=%d: charge after recovery: %v", cut, err)
		}
		l2.Close()
	}
}

// TestLedgerMidFileCorruption pins the loud-failure path: a corrupt record
// with intact records after it means durable spend is unreadable, and the
// open must fail rather than silently under-count.
func TestLedgerMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i, lbl := range []string{"a", "b", "c"} {
		if err := l.Charge("roads", lbl, 0.1*float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the FIRST line.
	corrupted := append([]byte(nil), data...)
	corrupted[len(ledgerLinePrefix)+20] ^= 0x01
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLedger(path, 1.0); err == nil {
		t.Fatal("mid-file corruption with records following must fail the open")
	}
}

// TestLedgerAppendFailureLatchesAndRecovers pins the failed-append
// contract: a Charge whose journal append fails commits nothing in memory —
// no seq advance, no accountant spend — so the on-disk record sequence can
// never gap (the old behavior bumped seq first; a later successful charge
// then wrote a gapped record the next open refused to replay). When even
// the tail rollback fails the ledger latches broken and refuses further
// charges until a reopen replays the durable prefix.
func TestLedgerAppendFailureLatchesAndRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("roads", "roads@v1", 1); err != nil {
		t.Fatal(err)
	}
	// Close the handle out from under the ledger: the append fails, and so
	// does the rollback truncate — the broken-latch path.
	l.log.Close()
	if err := l.Charge("roads", "roads@v2", 1); err == nil {
		t.Fatal("charge with failed append reported success")
	}
	if got := l.Spent("roads"); got != 1 {
		t.Fatalf("failed charge leaked into memory: Spent = %v, want 1", got)
	}
	if err := l.Charge("roads", "roads@v3", 1); err == nil {
		t.Fatal("broken ledger admitted a further charge")
	}

	// Reopen: the durable prefix replays, and charging resumes with the
	// very seq the failed attempt would have used — no gap, no duplicate.
	l2, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Spent("roads"); got != 1 {
		t.Fatalf("replayed Spent = %v, want 1", got)
	}
	if err := l2.Charge("roads", "roads@v2", 1); err != nil {
		t.Fatalf("charge after recovery: %v", err)
	}
	l2.Close()
	l3, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatalf("journal left unreplayable by the failure: %v", err)
	}
	defer l3.Close()
	if got := l3.Spent("roads"); got != 2 {
		t.Fatalf("final Spent = %v, want 2", got)
	}
}

// TestLedgerReplayExceedsBudget pins the over-count-safe direction: records
// already on disk are replayed even past a (now smaller) budget — a durable
// spend is a fact — and further charges are refused.
func TestLedgerReplayExceedsBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("roads", "roads@v1", 0.8); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenLedger(path, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Spent("roads"); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("replayed Spent = %v, want 0.8 (replay must not drop durable spend)", got)
	}
	if l2.Remaining("roads") != 0 {
		t.Fatalf("Remaining = %v, want 0", l2.Remaining("roads"))
	}
	if err := l2.Charge("roads", "roads@v2", 0.01); err == nil {
		t.Fatal("charge admitted past exhausted budget")
	}
}

// TestLedgerRefusesUnreplayableCharge pins that a charge the replay would
// refuse (an unnamed one) is never left on disk: it fails, and the ledger
// still reopens and keeps charging.
func TestLedgerRefusesUnreplayableCharge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("", "anon@v1", 0.1); err == nil {
		t.Fatal("unnamed charge admitted")
	}
	if err := l.Charge("roads", "roads@v1", 0.1); err != nil {
		t.Fatalf("charge after a refused one: %v", err)
	}
	l.Close()
	l2, err := OpenLedger(path, 1.0)
	if err != nil {
		t.Fatalf("ledger left unreplayable: %v", err)
	}
	defer l2.Close()
	if got := l2.Spent("roads"); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("replayed Spent = %v, want 0.1", got)
	}
}
