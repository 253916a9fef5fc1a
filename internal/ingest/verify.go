package ingest

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"

	"psd"
	"psd/internal/checksum"
)

// Verification: the auditable half of the crash-safety claim. Every
// published version's journal record carries (points P, seed, ε, CRC-64);
// the build is deterministic; the WAL holds every acknowledged point. So an
// auditor — or the e2e kill-loop — can rebuild any version from first
// principles and bit-compare three things: the journal's recorded checksum,
// a fresh rebuild from the replayed WAL, and the artifact actually sitting
// in the publish directory. All three agreeing is what "SIGKILL at any
// instant recovers to a byte-identical release" means, checked end to end.
// The checksum is the artifact fingerprint of internal/checksum, the same
// identity manifests pin.

// VersionCheck is one published version's verification result.
type VersionCheck struct {
	Version int    `json:"version"`
	Points  uint64 `json:"points"`
	// JournalCRC is the checksum the publish cycle recorded.
	JournalCRC string `json:"journal_crc"`
	// RebuiltCRC is a fresh deterministic rebuild from the WAL's points.
	RebuiltCRC string `json:"rebuilt_crc"`
	// ArtifactCRC is the on-disk artifact's checksum; empty when the
	// artifact is missing.
	ArtifactCRC string `json:"artifact_crc,omitempty"`
	// Pruned: the artifact is gone in the shape prune leaves (expected,
	// not a failure): it is not the latest version, and no older version's
	// artifact survives.
	Pruned bool `json:"pruned,omitempty"`
	// OK: rebuild matches the journal, and the artifact matches too — or
	// was pruned. Any other missing artifact is not OK.
	OK bool `json:"ok"`
}

// Verify rebuilds every published version from the WAL and bit-compares it
// against the journal record and the published artifact. The returned error
// covers infrastructure failures only (a build that won't run, an artifact
// that exists but cannot be opened or read); mismatches are reported per
// version in the checks.
func (in *Ingester) Verify() ([]VersionCheck, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	pubs := in.journal.PublishedVersions()
	checks := make([]VersionCheck, 0, len(pubs))
	survivor := false // an artifact of an older version was found
	for _, rec := range pubs {
		c := VersionCheck{Version: rec.Version, Points: rec.Points, JournalCRC: rec.CRC64}
		if rec.Points > uint64(len(in.points)) {
			return nil, fmt.Errorf("ingest: v%d covers %d points but the WAL holds only %d",
				rec.Version, rec.Points, len(in.points))
		}
		opts := in.cfg.Build
		opts.Seed = rec.Seed
		opts.Epsilon = rec.Eps
		tree, err := psd.Build(in.points[:rec.Points], in.cfg.Domain, opts)
		if err != nil {
			return nil, fmt.Errorf("ingest: rebuilding v%d: %w", rec.Version, err)
		}
		sum := checksum.New(checksum.Fingerprint)
		if err := tree.WriteBinaryV3Release(sum); err != nil {
			return nil, fmt.Errorf("ingest: serializing rebuilt v%d: %w", rec.Version, err)
		}
		c.RebuiltCRC = checksum.FormatFingerprint(sum.Sum64())
		c.OK = c.RebuiltCRC == c.JournalCRC
		path := in.artifactPath(rec.Version)
		f, err := in.fs.Open(path)
		switch {
		case errors.Is(err, iofs.ErrNotExist):
			// Whatever Keep each run used, prune removes the oldest first
			// and never the latest; anything else missing was lost. (A
			// lost oldest survivor looks like a prune.)
			c.Pruned = !survivor && rec.Version < in.latestVersion
			c.OK = c.OK && c.Pruned
		case err != nil:
			return nil, fmt.Errorf("ingest: opening %s: %w", path, err)
		default:
			survivor = true
			fsum := checksum.New(checksum.Fingerprint)
			_, cpErr := io.Copy(fsum, f)
			f.Close()
			if cpErr != nil {
				return nil, fmt.Errorf("ingest: reading %s: %w", path, cpErr)
			}
			c.ArtifactCRC = checksum.FormatFingerprint(fsum.Sum64())
			c.OK = c.OK && c.ArtifactCRC == c.JournalCRC
		}
		checks = append(checks, c)
	}
	return checks, nil
}
