package serve

import (
	"fmt"
	"sort"
	"time"

	"psd/internal/checksum"
)

// Manifest-driven rollouts: a manifest names a versioned set of release
// artifacts (path + fingerprint each). A replica applies a manifest by
// loading every artifact exactly as a watch-dir file loads — mapped and
// verified, or decoded, which computes the fingerprint over every byte on
// the way — comparing each fingerprint with its pin, and only then
// swapping the whole set into the registry atomically. A manifest that
// fails at any point changes nothing: the replica keeps serving exactly
// what it served before, which is what makes fleet-level rollback safe
// (the coordinator just re-applies the previous manifest). The pin is the
// artifact fingerprint of internal/checksum, the value psdingest's publish
// cycle journals and psdtool prints.

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
	// Fingerprint is the artifact's fingerprint (CRC-64/ISO over every
	// byte) as 16 hex digits: the crc64 psdingest's /publish returns, or
	// the value psdtool prints.
	Fingerprint string `json:"fingerprint"`
	// LegacyCRC64 is the old whole-file CRC-64/ECMA pin, which gave every
	// valid v3 artifact the same value. It is read only so that Validate
	// can refuse it by name.
	LegacyCRC64 string `json:"crc64,omitempty"`
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
		if e.LegacyCRC64 != "" {
			return fmt.Errorf("serve: manifest %q: release %q pins \"crc64\", which is no longer accepted: "+
				"pin the artifact fingerprint (CRC-64/ISO, the crc64 psdingest /publish returns) in \"fingerprint\"",
				m.Version, e.Name)
		}
		if _, err := checksum.ParseFingerprint(e.Fingerprint); err != nil {
			return fmt.Errorf("serve: manifest %q: release %q: %w", m.Version, e.Name, err)
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

// ApplyManifest loads and verifies every artifact the manifest names,
// then installs the whole set in one atomic swap: releases named by the
// manifest are replaced (fresh caches), releases owned by the previous
// manifest but absent from this one are removed, and releases installed
// outside any manifest (watch dir, API uploads) are left alone. On any
// failure — unreadable path, fingerprint mismatch, artifact that fails
// validation — the registry is untouched, the artifacts opened so far are
// closed, and the error says which artifact broke.
func (g *Registry) ApplyManifest(m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	// Load + verify everything before touching the registry. An artifact
	// is opened exactly as loadFile opens it, so it arrives warmed: mapped
	// and read through once, or fully decoded.
	fresh := make([]*Release, 0, len(m.Releases))
	for _, e := range m.Releases {
		rel, _, err := g.openRelease(e.Name, e.Path)
		if want, _ := checksum.ParseFingerprint(e.Fingerprint); err == nil && rel.Fingerprint != want {
			rel.Slab.Close()
			err = fmt.Errorf("fingerprint mismatch for %s: manifest pins %s, file is %s", e.Path,
				checksum.FormatFingerprint(want), checksum.FormatFingerprint(rel.Fingerprint))
		}
		if err != nil {
			for _, rel := range fresh {
				rel.Slab.Close()
			}
			return fmt.Errorf("serve: manifest %q: release %q: %w", m.Version, e.Name, err)
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
			g.removeLocked(name)
		}
	}
	for _, rel := range fresh {
		g.putLocked(rel)
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
