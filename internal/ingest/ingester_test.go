package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"psd"
)

func testConfig(t *testing.T, root string) Config {
	t.Helper()
	return Config{
		Name:         "taxi",
		StateDir:     filepath.Join(root, "state"),
		PublishDir:   filepath.Join(root, "pub"),
		Domain:       psd.NewRect(0, 0, 1, 1),
		Build:        psd.Options{Height: 3, Seed: 42},
		Budget:       10,
		EpochEpsilon: 1,
	}
}

func mustIngest(t *testing.T, in *Ingester, pts []psd.Point) {
	t.Helper()
	if _, err := in.Ingest(pts); err != nil {
		t.Fatal(err)
	}
}

func artifactBytes(t *testing.T, cfg Config, v int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(cfg.PublishDir, fmt.Sprintf("%s@v%d.bin", cfg.Name, v)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceRun publishes two versions with no faults and returns the two
// artifacts — the byte-identicality baseline every crash scenario must hit.
func referenceRun(t *testing.T) (v1, v2 []byte) {
	t.Helper()
	cfg := testConfig(t, t.TempDir())
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	mustIngest(t, in, testPoints(100, 0.1))
	if _, err := in.Publish(TriggerManual); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(50, 0.5))
	if _, err := in.Publish(TriggerManual); err != nil {
		t.Fatal(err)
	}
	return artifactBytes(t, cfg, 1), artifactBytes(t, cfg, 2)
}

// TestIngesterPublishDeterminism pins the foundation of crash recovery:
// identical WAL contents and config produce bit-identical releases.
func TestIngesterPublishDeterminism(t *testing.T) {
	a1, a2 := referenceRun(t)
	b1, b2 := referenceRun(t)
	if !equalBytes(a1, b1) || !equalBytes(a2, b2) {
		t.Fatal("two identical runs produced different release bytes")
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIngesterCrashRecoveryMatrix simulates a crash after EVERY durable step
// of the publish cycle and checks recovery completes the publication with
// byte-identical output, exactly one epoch charged, and the next version
// still publishable.
func TestIngesterCrashRecoveryMatrix(t *testing.T) {
	ref1, ref2 := referenceRun(t)
	for _, step := range []string{"intent", "charge", "build", "artifact"} {
		t.Run(step, func(t *testing.T) {
			cfg := testConfig(t, t.TempDir())
			in, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustIngest(t, in, testPoints(100, 0.1))
			in.failpoint = func(s string) error {
				if s == step {
					return errors.New("simulated crash at " + s)
				}
				return nil
			}
			if _, err := in.Publish(TriggerManual); err == nil {
				t.Fatal("publish survived its simulated crash")
			}
			// Wedged: further publishes refuse until restart.
			if _, err := in.Publish(TriggerManual); err == nil {
				t.Fatal("wedged ingester accepted a publish")
			}
			if s := in.Stats(); s.Wedged == "" {
				t.Fatal("stats hide the wedged state")
			}
			in.Close()

			// "Restart": recovery must roll the cycle forward.
			in2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer in2.Close()
			s := in2.Stats()
			if s.LatestVersion != 1 {
				t.Fatalf("recovered latest version = %d, want 1", s.LatestVersion)
			}
			if s.Recovered != 1 {
				t.Fatalf("Recovered = %d, want 1", s.Recovered)
			}
			if s.Spent != 1 {
				t.Fatalf("Spent = %v, want exactly one epoch (no double charge)", s.Spent)
			}
			if got := artifactBytes(t, cfg, 1); !equalBytes(got, ref1) {
				t.Fatal("recovered v1 differs from the uncrashed run's bytes")
			}
			// Life goes on: v2 publishes and matches the reference too.
			mustIngest(t, in2, testPoints(50, 0.5))
			if _, err := in2.Publish(TriggerManual); err != nil {
				t.Fatal(err)
			}
			if got := artifactBytes(t, cfg, 2); !equalBytes(got, ref2) {
				t.Fatal("post-recovery v2 differs from the uncrashed run's bytes")
			}
			if s := in2.Stats(); s.Spent != 2 {
				t.Fatalf("Spent after v2 = %v, want 2", s.Spent)
			}
		})
	}
}

// TestIngesterDoubleCrash crashes the publish AND then the recovery, then
// recovers for real: completion must still be exact and single-charged.
func TestIngesterDoubleCrash(t *testing.T) {
	ref1, _ := referenceRun(t)
	cfg := testConfig(t, t.TempDir())
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(100, 0.1))
	in.failpoint = func(s string) error {
		if s == "charge" {
			return errors.New("crash 1")
		}
		return nil
	}
	if _, err := in.Publish(TriggerManual); err == nil {
		t.Fatal("publish survived crash 1")
	}
	in.Close()

	// Recovery attempt that itself crashes right after the (idempotent)
	// charge check, before the rebuild finishes its publish.
	if _, err := openWithFailpoint(cfg, "build", errors.New("crash 2")); err == nil {
		t.Fatal("recovery survived crash 2")
	}

	in3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in3.Close()
	s := in3.Stats()
	if s.LatestVersion != 1 || s.Spent != 1 {
		t.Fatalf("after double crash: version %d spent %v, want 1 and 1", s.LatestVersion, s.Spent)
	}
	if got := artifactBytes(t, cfg, 1); !equalBytes(got, ref1) {
		t.Fatal("double-crash recovery produced different bytes")
	}
}

// openWithFailpoint opens an ingester whose recovery runs under a failpoint.
func openWithFailpoint(cfg Config, step string, fail error) (*Ingester, error) {
	// Recovery runs inside Open, so the failpoint has to be planted by the
	// recovery path itself: replicate Open's wiring with the hook set.
	in, err := openNoRecover(cfg)
	if err != nil {
		return nil, err
	}
	in.failpoint = func(s string) error {
		if s == step {
			return fail
		}
		return nil
	}
	if err := in.recover(); err != nil {
		in.Close()
		return nil, err
	}
	in.failpoint = nil
	return in, nil
}

// TestIngesterBudgetExhaustion: once the ledger cannot fund another epoch,
// publishing refuses (durably, across restarts) while ingest keeps working
// and the last release stays published.
func TestIngesterBudgetExhaustion(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Budget = 2.5 // funds exactly two 1.0 epochs
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(10, 0.1))
	if _, err := in.Publish(TriggerManual); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(10, 0.2))
	if _, err := in.Publish(TriggerManual); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(10, 0.3))
	if _, err := in.Publish(TriggerManual); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third epoch: got %v, want ErrBudgetExhausted", err)
	}
	s := in.Stats()
	if !s.BudgetExhausted || s.Refused != 1 {
		t.Fatalf("stats: exhausted=%v refused=%d", s.BudgetExhausted, s.Refused)
	}
	// Ingest still works; nothing about the refusal was recorded durably.
	mustIngest(t, in, testPoints(5, 0.4))
	in.Close()

	in2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close()
	s = in2.Stats()
	if s.LatestVersion != 2 || !s.BudgetExhausted {
		t.Fatalf("after restart: version=%d exhausted=%v", s.LatestVersion, s.BudgetExhausted)
	}
	if s.Points != 35 {
		t.Fatalf("Points = %d, want 35", s.Points)
	}
	if _, err := in2.Publish(TriggerManual); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-restart publish: got %v, want ErrBudgetExhausted", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.PublishDir, "taxi@v2.bin")); err != nil {
		t.Fatal("last release vanished:", err)
	}
}

// TestIngesterTriggers pins the cadence semantics.
func TestIngesterTriggers(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.RebuildCount = 10
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, err := in.Publish(TriggerInterval); !errors.Is(err, ErrNoNewPoints) {
		t.Fatalf("empty interval publish: %v", err)
	}
	mustIngest(t, in, testPoints(5, 0.1))
	if _, err := in.Publish(TriggerCount); !errors.Is(err, ErrNoTrigger) {
		t.Fatalf("5 < 10 points must not trigger: %v", err)
	}
	if _, err := in.Publish(TriggerInterval); err != nil {
		t.Fatalf("interval publish with new points: %v", err)
	}
	mustIngest(t, in, testPoints(10, 0.2))
	if _, err := in.Publish(TriggerCount); err != nil {
		t.Fatalf("10 ≥ 10 points must trigger: %v", err)
	}
	if _, err := in.Publish(TriggerManual); !errors.Is(err, ErrNoNewPoints) {
		t.Fatalf("manual republish with no new points: %v", err)
	}
}

// TestIngesterKeepPruning: only the newest Keep artifacts survive; the
// journal still remembers everything.
func TestIngesterKeepPruning(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Keep = 2
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i := 0; i < 4; i++ {
		mustIngest(t, in, testPoints(10, float64(i)))
		if _, err := in.Publish(TriggerManual); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= 4; v++ {
		_, err := os.Stat(filepath.Join(cfg.PublishDir, fmt.Sprintf("taxi@v%d.bin", v)))
		if kept := v > 2; kept != (err == nil) {
			t.Fatalf("v%d: kept=%v stat err=%v", v, kept, err)
		}
	}
	if s := in.Stats(); s.Published != 4 || s.LatestVersion != 4 {
		t.Fatalf("history lost: published=%d latest=%d", s.Published, s.LatestVersion)
	}
}

// TestIngesterRejectsNonFinite: NaN/Inf points never reach the WAL.
func TestIngesterRejectsNonFinite(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	bad := []psd.Point{{X: 0.5, Y: 0.5}, {X: nan(), Y: 0.1}}
	if _, err := in.Ingest(bad); !errors.Is(err, ErrBadPoint) {
		t.Fatalf("NaN point: got %v, want an ErrBadPoint (the daemon's 400-vs-500 classifier)", err)
	}
	if s := in.Stats(); s.Points != 0 {
		t.Fatalf("partial batch reached the WAL: %d points", s.Points)
	}
}

// TestIngesterRejectsBadDomain: a domain no build accepts fails Open
// before any state exists, instead of charging ε for each publish that
// then fails and wedges the ingester.
func TestIngesterRejectsBadDomain(t *testing.T) {
	for _, dom := range []psd.Rect{
		{Hi: psd.Point{X: 0, Y: 10}},
		{Lo: psd.Point{X: 1, Y: 0}, Hi: psd.Point{X: 0, Y: 1}},
		{Hi: psd.Point{X: nan(), Y: 1}},
		{Hi: psd.Point{X: 1, Y: math.Inf(1)}},
	} {
		cfg := testConfig(t, t.TempDir())
		cfg.Domain = dom
		if in, err := Open(cfg); err == nil {
			in.Close()
			t.Errorf("domain %v: Open succeeded", dom)
		}
		if _, err := os.Stat(filepath.Join(cfg.StateDir, "ledger")); !os.IsNotExist(err) {
			t.Errorf("domain %v: ledger exists after a refused Open (stat: %v)", dom, err)
		}
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestIngesterAbandonOnShrunkBudget: a pending intent whose ε the (now
// smaller) budget cannot fund is durably abandoned, and the ingester keeps
// working instead of retrying forever.
func TestIngesterAbandonOnShrunkBudget(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(10, 0.1))
	in.failpoint = func(s string) error {
		if s == "intent" {
			return errors.New("crash before charge")
		}
		return nil
	}
	if _, err := in.Publish(TriggerManual); err == nil {
		t.Fatal("publish survived simulated crash")
	}
	in.Close()

	// Restart with a budget below one epoch: the pending v1 cannot be funded.
	cfg.Budget = 0.5
	in2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := in2.Stats()
	if s.LatestVersion != 0 || s.Spent != 0 {
		t.Fatalf("abandoned intent leaked: version=%d spent=%v", s.LatestVersion, s.Spent)
	}
	in2.Close()
	// And the abandonment is durable — a third open has nothing pending.
	in3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in3.Close()
	if s := in3.Stats(); s.Recovered != 0 {
		t.Fatalf("abandoned intent re-recovered: %d", s.Recovered)
	}
}

// TestIngesterIngestDuringPublish pins the lock-scope contract: the rebuild
// and artifact serialization run outside the ingest mutex, so /ingest
// appends (and their durability acks) proceed while a publish is in flight
// instead of stalling for the full build. The build failpoint fires
// mid-cycle, after the point snapshot was taken; an Ingest issued there
// must complete promptly, and the published artifact must cover exactly the
// snapshot, not the late arrivals.
func TestIngesterIngestDuringPublish(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	mustIngest(t, in, testPoints(100, 0.1))
	in.failpoint = func(s string) error {
		if s != "build" {
			return nil
		}
		done := make(chan error, 1)
		go func() {
			_, err := in.Ingest(testPoints(5, 0.9))
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("mid-publish ingest failed: %v", err)
			}
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("mid-publish ingest blocked behind the build")
		}
	}
	res, err := in.Publish(TriggerManual)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 100 {
		t.Fatalf("published %d points, want the 100-point snapshot", res.Points)
	}
	if s := in.Stats(); s.Points != 105 || s.PendingPoints != 5 {
		t.Fatalf("points=%d pending=%d, want 105 and 5", s.Points, s.PendingPoints)
	}
}

// TestIngesterCloseWaitsForPublish pins Close against a publish cycle in
// flight: Close must wait for the cycle to finish rather than close the
// journal and ledger under it, which left the cycle's last steps
// dereferencing nil handles.
func TestIngesterCloseWaitsForPublish(t *testing.T) {
	in, err := Open(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(100, 0.1))
	held, release := make(chan struct{}), make(chan struct{})
	in.failpoint = func(s string) error {
		if s == "build" {
			close(held)
			<-release
		}
		return nil
	}
	published := make(chan error, 1)
	go func() {
		_, err := in.Publish(TriggerManual)
		published <- err
	}()
	<-held
	closed := make(chan error, 1)
	go func() { closed <- in.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while the publish cycle was held at its build step", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-published; err != nil {
		t.Fatalf("publish across Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestIngesterUnlimitedBudget pins the daemon's default configuration: a
// non-positive budget means unlimited — publishing is never refused for
// budget reasons (the old behavior read 0 as "no spending permitted", so a
// default-flags daemon could never publish), spend is still recorded, and
// the stats snapshot stays JSON-encodable (no +Inf leaking out).
func TestIngesterUnlimitedBudget(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Budget = 0
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i := 0; i < 3; i++ {
		mustIngest(t, in, testPoints(10, float64(i)))
		if _, err := in.Publish(TriggerManual); err != nil {
			t.Fatalf("publish %d under an unlimited budget refused: %v", i+1, err)
		}
	}
	s := in.Stats()
	if s.BudgetExhausted {
		t.Fatal("unlimited budget reported exhausted")
	}
	if s.Budget != 0 || s.Remaining != 0 {
		t.Fatalf("unlimited budget must report the 0-means-unlimited convention, got budget=%v remaining=%v", s.Budget, s.Remaining)
	}
	if s.Spent != 3 {
		t.Fatalf("Spent = %v, want 3 (charges are still recorded)", s.Spent)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("stats snapshot not JSON-encodable: %v", err)
	}
}

// TestArtifactFingerprintDiscriminates guards against a subtle CRC footgun:
// the v3 artifact ends with its own CRC-64/ECMA, and a CRC taken with the
// SAME polynomial over message+CRC collapses to one residue constant for
// every valid artifact. The journal fingerprint must therefore use a
// different polynomial — two different releases must carry different
// fingerprints, or the verify audit proves nothing.
func TestArtifactFingerprintDiscriminates(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	mustIngest(t, in, testPoints(100, 0.1))
	r1, err := in.Publish(TriggerManual)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, in, testPoints(50, 0.5))
	r2, err := in.Publish(TriggerManual)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CRC64 == r2.CRC64 {
		t.Fatalf("v1 and v2 share fingerprint %s: the polynomial is degenerate over self-checksummed artifacts", r1.CRC64)
	}
	checks, err := in.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.OK {
			t.Fatalf("verify: %+v", c)
		}
	}
}
