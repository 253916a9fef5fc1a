package serve

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Versioned releases. A registry key is either a bare name ("taxi" — the
// original single-artifact mode) or a versioned key "taxi@vN" as published
// by the streaming ingest tier, one immutable artifact per version. The two
// modes share the entries map; what versioning adds is RESOLUTION: a query
// for the bare base name serves the pinned version if an operator promoted
// one, else the highest registered version, so `latest` advances atomically
// the instant a new version's artifact is registered — readers never see a
// half-switched state, and time travel is one ?version= away.
//
// The canonical version syntax is strict — "v" followed by a positive
// decimal with no leading zero — because these keys appear in file names,
// URLs, manifests, and the privacy ledger, and two spellings of one version
// ("v2" / "v02") would make budget accounting ambiguous.

// parseVersionSuffix parses the canonical "vN" form (N ≥ 1, no leading
// zero).
func parseVersionSuffix(s string) (int, bool) {
	if len(s) < 2 || len(s) > 10 || s[0] != 'v' || s[1] == '0' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// versionKey builds the canonical versioned key.
func versionKey(base string, v int) string { return fmt.Sprintf("%s@v%d", base, v) }

// parseKey splits a registry key into base name and version. Bare names
// return versioned=false. The error spells out exactly what is wrong —
// it becomes the quarantine reason for misnamed watch-dir files.
func parseKey(key string) (base string, version int, versioned bool, err error) {
	i := strings.IndexByte(key, '@')
	if i < 0 {
		return key, 0, false, validateName(key)
	}
	base, suffix := key[:i], key[i+1:]
	if err := validateName(base); err != nil {
		return "", 0, true, err
	}
	if strings.IndexByte(suffix, '@') >= 0 {
		return "", 0, true, fmt.Errorf("serve: invalid release key %q: more than one '@'", key)
	}
	v, ok := parseVersionSuffix(suffix)
	if !ok {
		return "", 0, true, fmt.Errorf("serve: invalid release key %q: version suffix must be v1, v2, … (no leading zero)", key)
	}
	return base, v, true, nil
}

// validateKey admits bare names and canonical versioned keys.
func validateKey(key string) error {
	_, _, _, err := parseKey(key)
	return err
}

// VersionInfo describes one registered version of a base name.
type VersionInfo struct {
	Version  int       `json:"version"`
	Key      string    `json:"key"`
	Bytes    int64     `json:"bytes"`
	Source   string    `json:"source"`
	LoadedAt time.Time `json:"loaded_at"`
	// Pinned: an operator promoted this version explicitly.
	Pinned bool `json:"pinned,omitempty"`
	// Active: this is the version the bare base name currently resolves to.
	Active bool `json:"active,omitempty"`
}

// SetKeepVersions bounds how many versions per base name the registry
// retains (0 keeps everything). Applies on each install; the pinned
// version is never evicted. Call before the registry serves traffic.
func (g *Registry) SetKeepVersions(k int) { g.keepVersions = k }

// noteInstallLocked maintains the version index after entries[key] was set.
func (g *Registry) noteInstallLocked(key string) {
	base, v, versioned, err := parseKey(key)
	if err != nil || !versioned {
		return
	}
	if v > g.latest[base] {
		g.latest[base] = v
	}
	g.evictVersionsLocked(base)
}

// evictVersionsLocked drops versions at or below latest−keep, except the
// pinned one. Evicted entries also forget their file state, so a
// reappearing artifact would reload cleanly.
func (g *Registry) evictVersionsLocked(base string) {
	if g.keepVersions <= 0 {
		return
	}
	floor := g.latest[base] - g.keepVersions
	pin := g.pinned[base]
	for key, rel := range g.entries {
		b, v, versioned, err := parseKey(key)
		if err != nil || !versioned || b != base {
			continue
		}
		if v <= floor && v != pin {
			delete(g.entries, key)
			delete(g.files, rel.Source)
		}
	}
}

// dropVersionLocked removes a versioned entry's index bookkeeping after its
// map entry was deleted: latest is recomputed from what remains, and a pin
// on the removed version is released (a pin must never point at nothing —
// the bare name would 404 while newer versions sit unreachable).
func (g *Registry) dropVersionLocked(base string, removed int) {
	if g.pinned[base] == removed {
		delete(g.pinned, base)
	}
	max := 0
	for key := range g.entries {
		b, v, versioned, err := parseKey(key)
		if err == nil && versioned && b == base && v > max {
			max = v
		}
	}
	if max == 0 {
		delete(g.latest, base)
	} else {
		g.latest[base] = max
	}
}

// Resolve returns the release name refers to. version may be "" (default
// resolution), "vN", or plain "N". Default resolution: an exact entry wins
// (bare single-artifact names, or a full "name@vN" path), else the base
// name serves its pinned version if set, else its highest version. The
// error text is the 404 body, so it names what was actually looked for.
func (g *Registry) Resolve(name, version string) (*Release, error) {
	if version != "" {
		if strings.IndexByte(name, '@') >= 0 {
			return nil, fmt.Errorf("name %q already carries a version; drop ?version=", name)
		}
		v, ok := parseVersionSuffix(version)
		if !ok {
			if n, err := strconv.Atoi(version); err == nil && n >= 1 {
				v, ok = n, true
			}
		}
		if !ok {
			return nil, fmt.Errorf("bad version %q (want vN or N, N ≥ 1)", version)
		}
		key := versionKey(name, v)
		if rel, ok := g.Get(key); ok {
			return rel, nil
		}
		return nil, fmt.Errorf("no release %q", key)
	}
	if rel, ok := g.Get(name); ok {
		return rel, nil
	}
	g.mu.RLock()
	v := g.pinned[name]
	if v == 0 {
		v = g.latest[name]
	}
	g.mu.RUnlock()
	if v > 0 {
		if rel, ok := g.Get(versionKey(name, v)); ok {
			return rel, nil
		}
	}
	return nil, fmt.Errorf("no release %q", name)
}

// Promote pins the bare base name to an explicit registered version;
// version 0 unpins it, returning the name to latest-wins resolution. The
// check-and-pin is atomic, so a resolve never observes a pin to a version
// that was absent at promote time.
func (g *Registry) Promote(base string, version int) error {
	if err := validateName(base); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if version == 0 {
		delete(g.pinned, base)
		return nil
	}
	if version < 0 {
		return fmt.Errorf("serve: bad version %d", version)
	}
	key := versionKey(base, version)
	if _, ok := g.entries[key]; !ok {
		return fmt.Errorf("serve: cannot promote %s: no such release", key)
	}
	g.pinned[base] = version
	return nil
}

// Versions lists the registered versions of a base name, oldest first,
// with the pin and the active (default-resolution) version marked.
func (g *Registry) Versions(base string) []VersionInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	active := g.pinned[base]
	if active == 0 {
		active = g.latest[base]
	}
	// A bare entry shadows every version in default resolution.
	if _, bare := g.entries[base]; bare {
		active = 0
	}
	var out []VersionInfo
	for key, rel := range g.entries {
		b, v, versioned, err := parseKey(key)
		if err != nil || !versioned || b != base {
			continue
		}
		out = append(out, VersionInfo{
			Version:  v,
			Key:      key,
			Bytes:    rel.Bytes,
			Source:   rel.Source,
			LoadedAt: rel.LoadedAt,
			Pinned:   v == g.pinned[base],
			Active:   v == active,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// pruneVanishedVersions unregisters versioned entries that were loaded from
// files in dir which no longer exist there — the serving mirror of the
// ingest tier's artifact pruning. Bare-name entries are untouched (their
// lifecycle is operator-driven), as are entries sourced elsewhere (API
// uploads, manifests, other directories).
func (g *Registry) pruneVanishedVersions(dir string, present map[string]bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for key, rel := range g.entries {
		if _, _, versioned, err := parseKey(key); err != nil || !versioned ||
			filepath.Dir(rel.Source) != dir || present[rel.Source] {
			continue
		}
		g.removeLocked(key)
		delete(g.files, rel.Source)
	}
}

// VersionedBases returns the base names that have versioned entries, sorted.
func (g *Registry) VersionedBases() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.latest))
	for base := range g.latest {
		out = append(out, base)
	}
	sort.Strings(out)
	return out
}
