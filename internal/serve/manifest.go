package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"time"

	"psd"
	"psd/internal/checksum"
)

// Manifest-driven rollouts: a manifest names a versioned set of release
// artifacts (path + CRC-64/ECMA checksum each). A replica applies a
// manifest by pulling and fully validating every artifact — checksum
// over the raw file bytes first, then the decode-time validation every
// load path already performs — and only then swapping the whole set into
// the registry atomically. A manifest that fails at any point changes
// nothing: the replica keeps serving exactly what it served before,
// which is what makes fleet-level rollback safe (the coordinator just
// re-applies the previous manifest). The CRC algorithm matches binary
// format v3's footer checksum (CRC-64/ECMA), so v3 artifacts carry the
// same integrity story end to end.

// Manifest is the rollout unit: a version tag plus the artifact set.
type Manifest struct {
	// Version labels this artifact set; any non-empty string, compared
	// for equality only (rollouts gate on "replica reports this exact
	// version").
	Version string `json:"version"`
	// Releases is the artifact set the manifest installs. Names absent
	// from a later manifest are removed when that manifest applies —
	// the manifest owns its release set.
	Releases []ManifestEntry `json:"releases"`
}

// ManifestEntry is one artifact in a manifest.
type ManifestEntry struct {
	// Name is the registry key the artifact serves under.
	Name string `json:"name"`
	// Path is where the replica pulls the artifact from (a file path on
	// storage every replica can read).
	Path string `json:"path"`
	// CRC64 is the hex CRC-64/ECMA checksum of the artifact's bytes.
	CRC64 string `json:"crc64"`
}

// ChecksumBytes returns the hex CRC-64/ECMA of data, the value a
// ManifestEntry.CRC64 must carry.
func ChecksumBytes(data []byte) string {
	return fmt.Sprintf("%016x", checksum.Checksum(data, checksum.ECMA))
}

// Validate rejects manifests that could not be applied unambiguously.
func (m *Manifest) Validate() error {
	if m.Version == "" {
		return fmt.Errorf("serve: manifest has no version")
	}
	if len(m.Releases) == 0 {
		return fmt.Errorf("serve: manifest %q names no releases", m.Version)
	}
	seen := make(map[string]bool, len(m.Releases))
	for _, e := range m.Releases {
		// Versioned keys ("taxi@v3") roll out exactly like bare names.
		if err := validateKey(e.Name); err != nil {
			return err
		}
		if seen[e.Name] {
			return fmt.Errorf("serve: manifest %q names %q twice", m.Version, e.Name)
		}
		seen[e.Name] = true
		if e.Path == "" {
			return fmt.Errorf("serve: manifest %q: release %q has no path", m.Version, e.Name)
		}
		if _, err := hex.DecodeString(e.CRC64); err != nil || len(e.CRC64) != 16 {
			return fmt.Errorf("serve: manifest %q: release %q has bad crc64 %q (want 16 hex digits)",
				m.Version, e.Name, e.CRC64)
		}
	}
	return nil
}

// ManifestStatus is the JSON shape of GET /v1/manifest: what the replica
// last applied.
type ManifestStatus struct {
	Manifest  Manifest  `json:"manifest"`
	AppliedAt time.Time `json:"applied_at"`
}

// CurrentManifest returns the last applied manifest, if any.
func (g *Registry) CurrentManifest() (ManifestStatus, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.manifest == nil {
		return ManifestStatus{}, false
	}
	return ManifestStatus{Manifest: *g.manifest, AppliedAt: g.manifestAt}, true
}

// ApplyManifest pulls, verifies, and warms every artifact the manifest
// names, then installs the whole set in one atomic swap: releases named
// by the manifest are replaced (fresh caches), releases owned by the
// previous manifest but absent from this one are removed, and releases
// installed outside any manifest (watch dir, API uploads) are left
// alone. On any failure — unreadable path, checksum mismatch, artifact
// that fails validation — the registry is untouched and the error says
// which artifact broke.
func (g *Registry) ApplyManifest(m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	// Pull + verify + warm everything before touching the registry. The
	// decoded slab is the warmed state: a fully parsed, query-ready
	// artifact (OpenSlab validates as it decodes).
	fresh := make([]*Release, 0, len(m.Releases))
	for _, e := range m.Releases {
		rel, err := g.pullManifestArtifact(e)
		if err != nil {
			return fmt.Errorf("serve: manifest %q: %w", m.Version, err)
		}
		fresh = append(fresh, rel)
	}
	g.mu.Lock()
	owned := make(map[string]bool, len(m.Releases))
	for _, rel := range fresh {
		owned[rel.Name] = true
	}
	for name := range g.manifestOwned {
		if !owned[name] {
			delete(g.entries, name)
			if base, v, versioned, err := parseKey(name); err == nil && versioned {
				g.dropVersionLocked(base, v)
			}
		}
	}
	for _, rel := range fresh {
		g.entries[rel.Name] = rel
		g.noteInstallLocked(rel.Name)
	}
	mCopy := m
	mCopy.Releases = append([]ManifestEntry(nil), m.Releases...)
	sort.Slice(mCopy.Releases, func(i, j int) bool {
		return mCopy.Releases[i].Name < mCopy.Releases[j].Name
	})
	g.manifest = &mCopy
	g.manifestAt = time.Now()
	g.manifestOwned = owned
	g.mu.Unlock()
	return nil
}

// pullManifestArtifact reads one manifest entry through the FS seam,
// checks its checksum, and opens it into a served release. The bytes are
// read in full for the CRC regardless of format — one sequential pass,
// which doubles as the warm-up read the rollout's "pull/warm/swap"
// contract promises.
func (g *Registry) pullManifestArtifact(e ManifestEntry) (*Release, error) {
	f, err := g.fs().Open(e.Path)
	if err != nil {
		return nil, fmt.Errorf("release %q: %w", e.Name, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("release %q: reading %s: %w", e.Name, e.Path, err)
	}
	if got := ChecksumBytes(data); got != e.CRC64 {
		return nil, fmt.Errorf("release %q: checksum mismatch for %s: manifest says %s, file is %s",
			e.Name, e.Path, e.CRC64, got)
	}
	slab, err := psd.OpenSlab(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("release %q: %s: %w", e.Name, e.Path, err)
	}
	return &Release{
		Name:       e.Name,
		Slab:       slab,
		Source:     e.Path,
		Bytes:      int64(len(data)),
		LoadedAt:   time.Now(),
		NumRegions: slab.NumRegions(),
		cache:      NewCache(g.cacheSize),
	}, nil
}
