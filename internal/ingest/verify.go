package ingest

import (
	"fmt"
	"hash"
	"io"

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

// newFingerprint hashes a published artifact. It deliberately uses a
// DIFFERENT polynomial (ISO) than the CRC-64/ECMA checksum the v3 artifact
// embeds in its own footer: a CRC taken over a message that ends with that
// message's own CRC (same polynomial) collapses to a fixed residue constant,
// the same for EVERY valid artifact — useless for telling two different
// releases apart. With a distinct polynomial the fingerprint is a real
// function of the bytes, so the verify audit's three-way bit-compare
// (journal vs rebuild vs on-disk) actually discriminates.
func newFingerprint() hash.Hash64 { return checksum.New(checksum.ISO) }

// VersionCheck is one published version's verification result.
type VersionCheck struct {
	Version int    `json:"version"`
	Points  uint64 `json:"points"`
	// JournalCRC is the checksum the publish cycle recorded.
	JournalCRC string `json:"journal_crc"`
	// RebuiltCRC is a fresh deterministic rebuild from the WAL's points.
	RebuiltCRC string `json:"rebuilt_crc"`
	// ArtifactCRC is the on-disk artifact's checksum; empty when the
	// artifact was pruned by the retention window (expected, not a failure).
	ArtifactCRC string `json:"artifact_crc,omitempty"`
	Pruned      bool   `json:"pruned,omitempty"`
	// OK: rebuild matches the journal, and the artifact (when present)
	// matches too.
	OK bool `json:"ok"`
}

// Verify rebuilds every published version from the WAL and bit-compares it
// against the journal record and the published artifact. The returned error
// covers infrastructure failures only (a build that won't run); mismatches
// are reported per version in the checks.
func (in *Ingester) Verify() ([]VersionCheck, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	pubs := in.journal.PublishedVersions()
	checks := make([]VersionCheck, 0, len(pubs))
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
		sum := newFingerprint()
		if err := tree.WriteBinaryV3Release(sum); err != nil {
			return nil, fmt.Errorf("ingest: serializing rebuilt v%d: %w", rec.Version, err)
		}
		c.RebuiltCRC = fmt.Sprintf("%016x", sum.Sum64())
		c.OK = c.RebuiltCRC == c.JournalCRC
		path := in.artifactPath(rec.Version)
		if f, err := in.fs.Open(path); err != nil {
			c.Pruned = true
		} else {
			fsum := newFingerprint()
			_, cpErr := io.Copy(fsum, f)
			f.Close()
			if cpErr != nil {
				return nil, fmt.Errorf("ingest: reading %s: %w", path, cpErr)
			}
			c.ArtifactCRC = fmt.Sprintf("%016x", fsum.Sum64())
			c.OK = c.OK && c.ArtifactCRC == c.JournalCRC
		}
		checks = append(checks, c)
	}
	return checks, nil
}
