package ingest

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/checksum"
	"psd/internal/dp"
)

// Trigger says why a publish is being attempted; it decides how many new
// points are required before one actually runs.
type Trigger int

const (
	// TriggerCount publishes only when at least Config.RebuildCount points
	// arrived since the latest version (the count cadence).
	TriggerCount Trigger = iota
	// TriggerInterval publishes when ANY new points arrived (the time
	// cadence — driven by the daemon's ticker).
	TriggerInterval
	// TriggerManual is an operator-requested publish; it too requires new
	// points (republishing an identical dataset would burn ε for nothing).
	TriggerManual
)

// Sentinel errors the daemon maps onto HTTP statuses.
var (
	// ErrNoTrigger: the count cadence has not accumulated enough new points.
	ErrNoTrigger = errors.New("ingest: not enough new points to trigger a rebuild")
	// ErrNoNewPoints: nothing new since the latest version.
	ErrNoNewPoints = errors.New("ingest: no new points since the latest version")
	// ErrBudgetExhausted: the per-name ε budget cannot fund another epoch.
	// Ingesting and serving the last release continue; publishing refuses.
	ErrBudgetExhausted = errors.New("ingest: privacy budget exhausted: refusing to publish a new version")
	// ErrBadPoint: the batch contains a non-finite coordinate and was
	// rejected whole before anything reached the WAL — the client's fault
	// (HTTP 400), unlike an append failure (HTTP 500).
	ErrBadPoint = errors.New("ingest: batch rejected: non-finite coordinates")
)

// Config configures an Ingester.
type Config struct {
	// Name is the release name; versions publish as Name@vN.bin.
	Name string
	// StateDir holds the WAL directory, the privacy ledger, and the
	// versions journal — everything recovery needs.
	StateDir string
	// PublishDir is where release artifacts are atomically published
	// (typically a psdserve watch dir).
	PublishDir string
	// Domain is the data domain of every build.
	Domain psd.Rect
	// Build carries the decomposition options. Build.Seed is the BASE seed:
	// version v builds with Seed+v, so every version is deterministic (the
	// kill-recovery proof rests on this) yet draws fresh noise.
	// Build.Epsilon is ignored; EpochEpsilon funds each version.
	Build psd.Options
	// Budget is the total per-name ε the persistent ledger enforces. A
	// non-positive budget means UNLIMITED — every epoch is admitted and
	// publishing never refuses for budget reasons (spend is still recorded).
	Budget float64
	// EpochEpsilon is the ε charged for each published version.
	EpochEpsilon float64
	// RebuildCount triggers a publish every this-many new points (0
	// disables the count cadence).
	RebuildCount int
	// Keep retains this many published artifacts, pruning older ones
	// (0 keeps everything).
	Keep int
	// MaxSegmentBytes rotates WAL segments at this size (0 = default).
	MaxSegmentBytes int64
	// FS is the filesystem seam (nil = real filesystem).
	FS FS
	// Logger receives recovery and publish notes (nil = discard).
	Logger *log.Logger
}

// PublishResult describes one published version.
type PublishResult struct {
	Version int
	Points  uint64
	Seed    int64
	Eps     float64
	Path    string
	Bytes   int64
	CRC64   string
}

// Stats is a point-in-time snapshot for /stats and /metrics.
//
// An unlimited budget (Config.Budget <= 0) reports Budget and Remaining as
// 0 — the documented "0 = unlimited" wire convention, which also keeps the
// JSON encodable (the ledger's internal +Inf budget is not). Consumers must
// read BudgetExhausted, not Remaining, as the refusal signal.
type Stats struct {
	Name            string    `json:"name"`
	Points          uint64    `json:"points"`
	PendingPoints   uint64    `json:"pending_points"`
	WALSegments     uint64    `json:"wal_segments"`
	WALBytes        int64     `json:"wal_bytes"`
	WALBroken       bool      `json:"wal_broken"`
	Budget          float64   `json:"budget"`
	Spent           float64   `json:"spent"`
	Remaining       float64   `json:"remaining"`
	BudgetExhausted bool      `json:"budget_exhausted"`
	LatestVersion   int       `json:"latest_version"`
	LatestPoints    uint64    `json:"latest_points"`
	Published       uint64    `json:"published"`
	Recovered       uint64    `json:"recovered"`
	Refused         uint64    `json:"refused"`
	IngestErrors    uint64    `json:"ingest_errors"`
	Wedged          string    `json:"wedged,omitempty"`
	LastPublish     time.Time `json:"last_publish"`
}

// Ingester ties the tiers together: points go into the WAL (fsync before
// ack), publications walk the journal's durable five-step cycle, and every
// version is charged to the persistent ledger before its artifact becomes
// visible. Open replays everything and rolls incomplete publications
// forward, so a SIGKILL at any instant loses no acknowledged point and
// yields byte-identical releases on recovery.
type Ingester struct {
	cfg Config
	fs  FS
	log *log.Logger

	// pubMu serializes whole publish cycles (concurrent POST /publish
	// requests must not interleave intents). The build and artifact
	// serialization run under pubMu ONLY — mu is held just for the brief
	// shared-state reads and writes around them, so /ingest appends and
	// their durability acks never stall behind a rebuild.
	pubMu sync.Mutex

	mu      sync.Mutex
	wal     *WAL
	points  []psd.Point
	ledger  *dp.Ledger
	journal *Journal

	latestVersion int
	latestPoints  uint64
	published     uint64
	recovered     uint64
	refused       uint64
	ingestErrs    uint64
	lastPublish   time.Time
	// wedged records a mid-cycle publish failure. The crash-safety story is
	// restart-shaped: rather than improvise in-process repair of a
	// half-committed cycle, further publishes refuse until a restart re-runs
	// recovery (ingest and serving continue meanwhile).
	wedged error

	// failpoint, when set (fault tests only), runs after each durable step
	// of the publish cycle; returning an error simulates a crash there.
	failpoint func(step string) error
}

// versionLabel is the ledger label of one version's epoch charge.
func versionLabel(name string, v int) string { return fmt.Sprintf("%s@v%d", name, v) }

// artifactPath is where version v's release artifact lives.
func (in *Ingester) artifactPath(v int) string {
	return filepath.Join(in.cfg.PublishDir, versionLabel(in.cfg.Name, v)+".bin")
}

// Open opens (creating if needed) the ingest state under cfg.StateDir,
// replays the WAL, ledger, and versions journal, and completes any publish
// cycle a crash interrupted.
func Open(cfg Config) (*Ingester, error) {
	in, err := openNoRecover(cfg)
	if err != nil {
		return nil, err
	}
	if err := in.recover(); err != nil {
		_ = in.Close() // the recovery error wins; state is re-replayed on reopen
		return nil, err
	}
	return in, nil
}

// openNoRecover does Open's state loading without the roll-forward pass —
// split out so fault tests can plant a failpoint inside recovery.
func openNoRecover(cfg Config) (*Ingester, error) {
	if cfg.Name == "" || cfg.StateDir == "" || cfg.PublishDir == "" {
		return nil, errors.New("ingest: Name, StateDir, and PublishDir are required")
	}
	if cfg.EpochEpsilon <= 0 || math.IsNaN(cfg.EpochEpsilon) || math.IsInf(cfg.EpochEpsilon, 0) {
		return nil, fmt.Errorf("ingest: invalid epoch epsilon %v", cfg.EpochEpsilon)
	}
	// Every publish would charge ε and then fail to build, so refuse the
	// domain before any state exists to charge.
	if d := cfg.Domain; !finite(d.Lo.X) || !finite(d.Lo.Y) || !finite(d.Hi.X) || !finite(d.Hi.Y) || d.Empty() {
		return nil, fmt.Errorf("ingest: domain %v is empty or not finite", d)
	}
	if cfg.FS == nil {
		cfg.FS = osFS{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	for _, dir := range []string{cfg.StateDir, cfg.PublishDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	wal, points, err := OpenWAL(filepath.Join(cfg.StateDir, "wal"), cfg.FS, cfg.MaxSegmentBytes)
	if err != nil {
		return nil, err
	}
	// A non-positive configured budget means unlimited. The accountant under
	// the ledger reads a non-positive budget as "no spending permitted", so
	// translate here: +Inf admits every finite epoch charge.
	budget := cfg.Budget
	if budget <= 0 {
		budget = math.Inf(1)
	}
	ledger, err := dp.OpenLedger(filepath.Join(cfg.StateDir, "ledger"), budget)
	if err != nil {
		_ = wal.Close() // the open error wins; nothing was appended yet
		return nil, err
	}
	journal, err := OpenJournal(filepath.Join(cfg.StateDir, "versions.log"))
	if err != nil {
		_ = wal.Close()
		_ = ledger.Close()
		return nil, err
	}
	in := &Ingester{cfg: cfg, fs: cfg.FS, log: logger, wal: wal, points: points, ledger: ledger, journal: journal}
	if latest, ok := journal.Latest(); ok {
		in.latestVersion, in.latestPoints = latest.Version, latest.Points
		in.published = uint64(len(journal.PublishedVersions()))
	}
	return in, nil
}

// recover rolls every pending publication forward. Each pending intent
// durably records (points P, seed, ε); the WAL holds at least P points (the
// intent was written only after their acks), the ledger knows whether its
// epoch was already charged, and the build is deterministic — so completion
// reproduces exactly the artifact the uncrashed run would have published.
func (in *Ingester) recover() error {
	for _, rec := range in.journal.Pending() {
		if rec.Points > uint64(len(in.points)) {
			return fmt.Errorf("ingest: intent v%d covers %d points but the WAL replayed only %d — acknowledged data is missing",
				rec.Version, rec.Points, len(in.points))
		}
		label := versionLabel(in.cfg.Name, rec.Version)
		if !in.ledger.Charged(in.cfg.Name, label) {
			if !in.ledger.CanCharge(in.cfg.Name, rec.Eps) {
				// The budget shrank between runs; this intent can never be
				// funded. Close it out so recovery converges.
				in.log.Printf("ingest: abandoning pending v%d: budget cannot fund ε=%v", rec.Version, rec.Eps)
				if err := in.journal.Abandon(rec.Version, "budget exhausted at recovery"); err != nil {
					return err
				}
				continue
			}
			if err := in.ledger.Charge(in.cfg.Name, label, rec.Eps); err != nil {
				return fmt.Errorf("ingest: recovery charge for v%d: %w", rec.Version, err)
			}
		}
		if err := in.fp("recover-charge"); err != nil {
			return err
		}
		if _, err := in.completeVersion(rec, in.points[:rec.Points:rec.Points]); err != nil {
			return fmt.Errorf("ingest: completing pending v%d: %w", rec.Version, err)
		}
		in.recovered++
		in.log.Printf("ingest: recovered pending publication %s", label)
	}
	return nil
}

// fp fires the test failpoint, if any.
func (in *Ingester) fp(step string) error {
	if in.failpoint != nil {
		return in.failpoint(step)
	}
	return nil
}

// Ingest appends pts to the WAL, acknowledging them (by returning the new
// total) only after they are durable. Non-finite coordinates are rejected
// whole-batch before anything is written, with an error matching
// ErrBadPoint under errors.Is.
func (in *Ingester) Ingest(pts []psd.Point) (uint64, error) {
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			return 0, fmt.Errorf("%w: point %d is (%v, %v)", ErrBadPoint, i, p.X, p.Y)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.wal.Append(pts); err != nil {
		in.ingestErrs++
		return 0, err
	}
	in.points = append(in.points, pts...)
	return uint64(len(in.points)), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Publish attempts to publish the next version over every acknowledged
// point. The durable order — intent, ledger charge, deterministic build,
// atomic artifact rename, published record — is what makes a kill at any
// instant recoverable; see the Journal docs. A refusal (no trigger, no new
// points, exhausted budget) records nothing anywhere.
//
// The cycle runs under pubMu; in.mu is taken only for the trigger check and
// the final stat updates, so ingestion proceeds while the (potentially
// seconds-long) build and serialization run. The point snapshot taken at
// the trigger check is safe to read lock-free: Ingest only ever appends,
// the snapshot's prefix is immutable, and psd.Build does not modify its
// input slice.
func (in *Ingester) Publish(trigger Trigger) (*PublishResult, error) {
	in.pubMu.Lock()
	defer in.pubMu.Unlock()
	in.mu.Lock()
	if in.wedged != nil {
		err := fmt.Errorf("ingest: publish pipeline wedged by an earlier mid-cycle failure (restart to recover): %w", in.wedged)
		in.mu.Unlock()
		return nil, err
	}
	count := uint64(len(in.points))
	fresh := count - in.latestPoints
	if trigger == TriggerCount {
		if in.cfg.RebuildCount <= 0 || fresh < uint64(in.cfg.RebuildCount) {
			in.mu.Unlock()
			return nil, ErrNoTrigger
		}
	} else if fresh == 0 {
		in.mu.Unlock()
		return nil, ErrNoNewPoints
	}
	if !in.ledger.CanCharge(in.cfg.Name, in.cfg.EpochEpsilon) {
		in.refused++
		in.mu.Unlock()
		return nil, ErrBudgetExhausted
	}
	pts := in.points[:count:count]
	in.mu.Unlock()

	v := in.journal.NextVersion()
	rec := VersionRecord{Version: v, Points: count, Seed: in.cfg.Build.Seed + int64(v), Eps: in.cfg.EpochEpsilon}
	if err := in.journal.Intent(v, rec.Points, rec.Seed, rec.Eps); err != nil {
		return nil, in.wedge(err)
	}
	if err := in.fp("intent"); err != nil {
		return nil, in.wedge(err)
	}
	if err := in.ledger.Charge(in.cfg.Name, versionLabel(in.cfg.Name, v), rec.Eps); err != nil {
		return nil, in.wedge(err)
	}
	if err := in.fp("charge"); err != nil {
		return nil, in.wedge(err)
	}
	res, err := in.completeVersion(rec, pts)
	if err != nil {
		return nil, in.wedge(err)
	}
	return res, nil
}

// wedge latches a mid-cycle failure.
func (in *Ingester) wedge(err error) error {
	in.mu.Lock()
	in.wedged = err
	in.mu.Unlock()
	return err
}

// completeVersion runs the non-durable-decision half of the publish cycle:
// deterministic build over the snapshot pts (the first rec.Points
// acknowledged points), atomic artifact publish, published record. Both the
// live path and recovery go through it, which is what makes the two
// byte-identical. It must be called without in.mu held — the build and
// serialization are the slow half, and taking mu only for the final stat
// updates is what keeps ingestion unblocked during them.
func (in *Ingester) completeVersion(rec VersionRecord, pts []psd.Point) (*PublishResult, error) {
	opts := in.cfg.Build
	opts.Seed = rec.Seed
	opts.Epsilon = rec.Eps
	tree, err := psd.Build(pts, in.cfg.Domain, opts)
	if err != nil {
		return nil, fmt.Errorf("ingest: building v%d: %w", rec.Version, err)
	}
	if err := in.fp("build"); err != nil {
		return nil, err
	}
	path := in.artifactPath(rec.Version)
	sum := checksum.New(checksum.Fingerprint)
	n, err := atomicfile.Write(path, func(w io.Writer) error {
		return tree.WriteBinaryV3Release(io.MultiWriter(w, sum))
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: publishing v%d: %w", rec.Version, err)
	}
	if err := in.fp("artifact"); err != nil {
		return nil, err
	}
	crcHex := checksum.FormatFingerprint(sum.Sum64())
	if err := in.journal.Published(rec.Version, crcHex, n); err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.latestVersion, in.latestPoints = rec.Version, rec.Points
	in.published++
	in.lastPublish = time.Now()
	in.mu.Unlock()
	in.prune(rec.Version)
	in.log.Printf("ingest: published %s@v%d (%d points, %d bytes, crc64 %s)",
		in.cfg.Name, rec.Version, rec.Points, n, crcHex)
	return &PublishResult{
		Version: rec.Version, Points: rec.Points, Seed: rec.Seed, Eps: rec.Eps,
		Path: path, Bytes: n, CRC64: crcHex,
	}, nil
}

// prune removes artifacts of published versions older than the retention
// window behind latest, oldest first. The journal keeps their records
// (history is cheap; artifacts are not), and a missing artifact is fine —
// pruning is best-effort. It stops at the first failed removal, so the
// pruned artifacts stay the oldest ones, which is how Verify tells them
// from lost ones.
func (in *Ingester) prune(latest int) {
	if in.cfg.Keep <= 0 {
		return
	}
	for _, pub := range in.journal.PublishedVersions() {
		if pub.Version > latest-in.cfg.Keep {
			return
		}
		path := in.artifactPath(pub.Version)
		switch err := in.fs.Remove(path); {
		case err == nil:
			in.log.Printf("ingest: pruned %s", path)
		case !errors.Is(err, os.ErrNotExist):
			in.log.Printf("ingest: pruning %s: %v", path, err)
			return
		}
	}
}

// Stats snapshots the ingester.
func (in *Ingester) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := Stats{
		Name:          in.cfg.Name,
		Points:        uint64(len(in.points)),
		PendingPoints: uint64(len(in.points)) - in.latestPoints,
		WALSegments:   in.wal.Segments(),
		WALBytes:      in.wal.Bytes(),
		WALBroken:     in.wal.Broken() != nil,
		Budget:        in.ledger.Budget(),
		Spent:         in.ledger.Spent(in.cfg.Name),
		Remaining:     in.ledger.Remaining(in.cfg.Name),
		LatestVersion: in.latestVersion,
		LatestPoints:  in.latestPoints,
		Published:     in.published,
		Recovered:     in.recovered,
		Refused:       in.refused,
		IngestErrors:  in.ingestErrs,
		LastPublish:   in.lastPublish,
	}
	s.BudgetExhausted = !in.ledger.CanCharge(in.cfg.Name, in.cfg.EpochEpsilon)
	if math.IsInf(s.Budget, 1) {
		// Unlimited budget: report the 0-means-unlimited convention.
		s.Budget, s.Remaining = 0, 0
	}
	if in.wedged != nil {
		s.Wedged = in.wedged.Error()
	}
	return s
}

// Close releases every file handle. It does NOT flush anything — there is
// nothing to flush; every acknowledged byte is already durable. A publish
// cycle in flight finishes first: Close takes pubMu before mu, the order
// Publish takes them in.
func (in *Ingester) Close() error {
	in.pubMu.Lock()
	defer in.pubMu.Unlock()
	in.mu.Lock()
	defer in.mu.Unlock()
	var first error
	if in.wal != nil {
		if err := in.wal.Close(); err != nil {
			first = err
		}
	}
	if in.journal != nil {
		if err := in.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if in.ledger != nil {
		if err := in.ledger.Close(); err != nil && first == nil {
			first = err
		}
	}
	in.wal, in.journal, in.ledger = nil, nil, nil
	return first
}
