// Package serve implements an HTTP serving layer over published PSD
// releases: the deployment shape the paper's publish-then-serve split
// implies (Section 4.1). A curator builds a tree once, spending the entire
// privacy budget, and publishes the release artifact; from then on every
// range query is free post-processing of the published counts. This package
// holds the machinery behind cmd/psdserve — a registry of opened releases
// with atomic hot reload, a bounded sharded answer cache, per-release
// serving statistics, and the HTTP handlers.
//
// Everything here works purely on release artifacts through the public psd
// API: the server never sees raw points, so nothing it does can spend
// privacy budget.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"psd"
)

// Release is one opened release being served: an immutable query-only slab
// plus its answer cache and serving statistics. Fields set at registration
// never change; a hot reload installs a whole new Release, so goroutines
// holding a pointer to the old one keep answering against a consistent
// slab.
type Release struct {
	// Name is the registry key.
	Name string
	// Slab is the reopened flat query-only decomposition. The serving layer
	// works exclusively on slabs: artifacts in either format (JSON or binary
	// v2) decode into the same columnar read path.
	Slab *psd.Slab
	// Source says where the artifact came from: a file path or "api".
	Source string
	// Fingerprint is the artifact's identity: the checksum.Fingerprint CRC
	// over every byte it was read or mapped from.
	Fingerprint uint64
	// Bytes is the serialized artifact size.
	Bytes int64
	// LoadedAt is the registration time.
	LoadedAt time.Time
	// NumRegions is the effective leaf-region count.
	NumRegions int

	cache *Cache
	stats stats
	// batchBufs pools the miss-tracking scratch of CountBatchIntoCtx so
	// steady-state batches (warm cache, or caching off) allocate nothing.
	batchBufs sync.Pool
}

// batchBuf is the reusable scratch of one batch request: which positions
// missed the cache, their rectangles, and the engine's answers for them.
type batchBuf struct {
	missIdx  []int32
	missQs   []psd.Rect
	missVals []float64
}

// CountCtx answers one range query through the cache, recording stats. A
// cache hit answers immediately (the lookup is far cheaper than any
// deadline); a miss runs the traversal with cancellation checkpoints and
// returns ctx.Err() if the deadline fires mid-walk. An abandoned traversal
// records nothing — no cache fill, no stats — so shed work never pollutes
// the serving state.
func (r *Release) CountCtx(ctx context.Context, q psd.Rect) (val float64, cached bool, err error) {
	start := time.Now()
	k := queryKey{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y}
	if v, ok := r.cache.Get(k); ok {
		r.stats.record(1, 1, time.Since(start))
		return v, true, nil
	}
	v, err := r.Slab.CountCtx(ctx, q)
	if err != nil {
		return 0, false, err
	}
	r.cache.Put(k, v)
	r.stats.record(1, 0, time.Since(start))
	return v, false, nil
}

// CountBatchIntoCtx answers a batch of queries into vals (whose length
// must match the batch): cached answers are filled directly, the misses go
// through ONE node-major engine call, and every fresh answer is inserted
// into the cache. Answers come back in input order and equal what CountCtx
// would return per rectangle. It returns the hit count plus the engine's
// aggregate traversal statistics over the missed rectangles (the sum of
// what each individual query would report).
//
// The misses' engine call is sharded across at most workers goroutines
// (the engine also caps it at one worker per 64 misses; workers <= 1 is
// the single-traversal path). Answers, hits and statistics are identical
// at every worker count. With workers <= 1 and a warm cache — or caching
// disabled — the steady-state call allocates nothing: the miss-tracking
// scratch is pooled and the engine runs out of pooled traversal state.
//
// The miss traversal runs with cancellation checkpoints and the call
// returns ctx.Err() — with vals undefined — if the deadline fires
// mid-walk. An abandoned batch records nothing: no cache fills, no stats,
// so shed work never pollutes the serving state.
func (r *Release) CountBatchIntoCtx(ctx context.Context, vals []float64, qs []psd.Rect, workers int) (hits int, st psd.QueryStats, err error) {
	start := time.Now()
	bb, _ := r.batchBufs.Get().(*batchBuf)
	if bb == nil {
		bb = &batchBuf{}
	}
	missIdx, missQs := bb.missIdx[:0], bb.missQs[:0]
	for i, q := range qs {
		k := queryKey{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y}
		if v, ok := r.cache.Get(k); ok {
			vals[i] = v
			hits++
			continue
		}
		missIdx = append(missIdx, int32(i))
		missQs = append(missQs, q)
	}
	if len(missQs) > 0 {
		if cap(bb.missVals) < len(missQs) {
			bb.missVals = make([]float64, len(missQs))
		}
		missVals := bb.missVals[:len(missQs)]
		// One engine call for every miss. workers <= 1 keeps the traversal
		// on this goroutine, allocation-free; more spreads it over cores a
		// lightly loaded replica would otherwise leave idle.
		st, err = r.Slab.CountBatchIntoWorkersCtx(ctx, missVals, missQs, max(workers, 1))
		if err != nil {
			bb.missIdx, bb.missQs = missIdx[:0], missQs[:0]
			r.batchBufs.Put(bb)
			return 0, psd.QueryStats{}, err
		}
		for j, i := range missIdx {
			vals[i] = missVals[j]
			q := missQs[j]
			r.cache.Put(queryKey{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y}, missVals[j])
		}
	}
	bb.missIdx, bb.missQs = missIdx[:0], missQs[:0]
	r.batchBufs.Put(bb)
	r.stats.record(uint64(len(qs)), uint64(hits), time.Since(start))
	return hits, st, nil
}

// Stats returns a snapshot of the release's serving counters.
func (r *Release) Stats() StatsSnapshot {
	return r.stats.snapshot(r.cache)
}

// fileState remembers what was loaded from a watch-directory file so an
// unchanged file is not re-registered (re-registering would needlessly drop
// the release's warm cache and stats).
type fileState struct {
	size    int64
	modTime time.Time
	// loadedAt is when this state was recorded. Filesystem mtimes can be as
	// coarse as a second (ext4 without high-resolution timestamps) or two
	// (FAT), so a file rewritten with an equal-length artifact within the
	// same tick carries the exact {size, mtime} it was loaded with. The skip
	// therefore only trusts an unchanged {size, mtime} once the mtime's
	// granularity window had already closed when the state was recorded —
	// any rewrite since then must bump the mtime out of the window.
	loadedAt time.Time
}

// mtimeGranularity is the coarsest file-mtime resolution the rescan skip
// defends against (FAT's 2s; ext4 and friends are finer).
const mtimeGranularity = 2 * time.Second

// settled reports whether the recorded {size, mtime} can be trusted to
// detect any rewrite: a file whose mtime was still within one granularity
// window of the load is rescanned unconditionally, because a same-size
// rewrite inside that window would be invisible. An mtime far in the
// *future* (skewed NFS server clock, artifact extracted with a bogus
// timestamp) also counts as settled — a later rewrite by the same skewed
// writer lands at a correspondingly later mtime, so the equality check
// still catches it; treating it as unsettled would instead reload the
// release on every scan forever, silently wiping the warm cache the skip
// exists to preserve.
func (f fileState) settled() bool {
	return f.modTime.Add(mtimeGranularity).Before(f.loadedAt) ||
		f.modTime.After(f.loadedAt.Add(mtimeGranularity))
}

// Registry is a named set of served releases. Reads take a shared lock for
// a single map lookup; everything heavy (opening an artifact, answering
// queries) happens outside the lock. Registration swaps the map entry
// atomically, so a reload never exposes a torn tree: in-flight queries
// finish against the release they already resolved.
type Registry struct {
	cacheSize int
	// fsys is the filesystem seam every file load flows through (nil means
	// the real filesystem); retryBase scales the transient-failure backoff
	// ceiling and jitter draws the actual delay from [0, ceiling] (nil
	// means fullJitter — tests pin it to identity for determinism); logger
	// receives quarantine lines (nil means the standard logger). All are
	// setup-time knobs, set before the registry serves traffic.
	fsys      FS
	logger    *log.Logger
	retryBase time.Duration
	jitter    func(time.Duration) time.Duration

	// keepVersions bounds retained versions per base name (versions.go).
	keepVersions int

	mu         sync.RWMutex
	entries    map[string]*Release
	files      map[string]fileState
	quarantine map[string]*quarantineEntry
	// latest/pinned index the versioned entries ("name@vN") per base name:
	// latest is the highest registered version, pinned an operator override
	// of default resolution (versions.go).
	latest map[string]int
	pinned map[string]int
	// manifest is the last applied rollout manifest (manifest.go);
	// manifestOwned tracks which entries it installed so a later
	// manifest can remove the ones it no longer names.
	manifest      *Manifest
	manifestAt    time.Time
	manifestOwned map[string]bool
}

// NewRegistry returns an empty registry whose releases each get an answer
// cache of the given capacity (<= 0 disables caching).
func NewRegistry(cacheSize int) *Registry {
	return &Registry{
		cacheSize:  cacheSize,
		retryBase:  defaultRetryBase,
		entries:    make(map[string]*Release),
		files:      make(map[string]fileState),
		quarantine: make(map[string]*quarantineEntry),
		latest:     make(map[string]int),
		pinned:     make(map[string]int),
	}
}

// SetFS swaps the filesystem seam (fault-injection tests). Call before the
// registry serves traffic.
func (g *Registry) SetFS(fsys FS) { g.fsys = fsys }

// SetLogger directs the registry's quarantine log lines. Call before the
// registry serves traffic.
func (g *Registry) SetLogger(l *log.Logger) { g.logger = l }

func (g *Registry) fs() FS {
	if g.fsys != nil {
		return g.fsys
	}
	return osFS{}
}

func (g *Registry) jitterFn() func(time.Duration) time.Duration {
	if g.jitter != nil {
		return g.jitter
	}
	return fullJitter
}

func (g *Registry) logf(format string, args ...any) {
	if g.logger != nil {
		g.logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Get returns the named release.
func (g *Registry) Get(name string) (*Release, bool) {
	g.mu.RLock()
	r, ok := g.entries[name]
	g.mu.RUnlock()
	return r, ok
}

// List returns every registered release, sorted by name.
func (g *Registry) List() []*Release {
	g.mu.RLock()
	out := make([]*Release, 0, len(g.entries))
	for _, r := range g.entries {
		out = append(out, r)
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered releases.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Remove deletes the release under the given key (bare name or "name@vN"),
// reporting whether it existed. Removing a versioned entry re-derives the
// base name's latest version and releases a pin that pointed at it.
func (g *Registry) Remove(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.removeLocked(name)
}

// removeLocked deletes the entry under name, if any, keeping the version
// index in step; g.mu must be held for writing.
func (g *Registry) removeLocked(name string) bool {
	_, ok := g.entries[name]
	delete(g.entries, name)
	if base, v, versioned, err := parseKey(name); ok && err == nil && versioned {
		g.dropVersionLocked(base, v)
	}
	return ok
}

// Register opens a serialized release from r and installs it under name —
// a bare name or a versioned key like "taxi@v3" — replacing any previous
// release of that key in one atomic map swap. The artifact is fully parsed
// and validated before the swap, so a malformed body can never displace a
// live release.
func (g *Registry) Register(name, source string, r io.Reader) (*Release, error) {
	if err := validateKey(name); err != nil {
		return nil, err
	}
	rel, _, err := g.readRelease(name, source, r)
	if err != nil {
		return nil, err
	}
	return g.install(rel), nil
}

// readRelease decodes the artifact r streams (any format, sniffed) into a
// new Release, draining r to EOF so that the fingerprint and size cover
// every byte of it, not just the ones the decoder needed. ioErr is the
// real read error met on the way, if any (see artifactReader).
func (g *Registry) readRelease(name, source string, r io.Reader) (rel *Release, ioErr, err error) {
	ar := &artifactReader{r: r}
	slab, err := psd.OpenSlab(ar)
	if err == nil {
		_, err = io.Copy(io.Discard, ar)
	}
	if err != nil {
		return nil, ar.ioErr, err
	}
	return g.newRelease(name, source, slab, ar.fp, ar.n), nil, nil
}

// newRelease is the only constructor of a Release: a validated artifact
// wrapped in a fresh answer cache and zeroed serving statistics.
func (g *Registry) newRelease(name, source string, slab *psd.Slab, fingerprint uint64, size int64) *Release {
	return &Release{
		Name:        name,
		Slab:        slab,
		Source:      source,
		Fingerprint: fingerprint,
		Bytes:       size,
		LoadedAt:    time.Now(),
		NumRegions:  slab.NumRegions(),
		cache:       NewCache(g.cacheSize),
	}
}

// install swaps rel in under its name, returning it.
func (g *Registry) install(rel *Release) *Release {
	g.mu.Lock()
	g.putLocked(rel)
	g.mu.Unlock()
	return rel
}

// putLocked swaps rel in under its name (g.mu held for writing). A
// replaced mmap-backed release is unmapped by the GC cleanup once in-flight
// queries against it finish (Close here would race them).
func (g *Registry) putLocked(rel *Release) {
	g.entries[rel.Name] = rel
	g.noteInstallLocked(rel.Name)
}

// validateName keeps registry names unambiguous in URLs and file names.
func validateName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("serve: invalid release name %q", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("serve: invalid release name %q (use [A-Za-z0-9._-])", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("serve: invalid release name %q", name)
	}
	return nil
}

// LoadFile opens a release artifact from path and registers it under name.
func (g *Registry) LoadFile(name, path string) (*Release, error) {
	rel, _, err := g.loadFile(name, path)
	return rel, err
}

// loadFile is LoadFile reporting, on failure, whether the failure was
// transient (worth retrying) or permanent; see openRelease.
func (g *Registry) loadFile(name, path string) (rel *Release, transient bool, err error) {
	if err := validateKey(name); err != nil {
		return nil, false, err
	}
	if rel, transient, err = g.openRelease(name, path); err != nil {
		return nil, transient, err
	}
	return g.install(rel), false, nil
}

// openRelease is the one way a file becomes a Release (not yet installed),
// reading it once through the FS seam. Where the seam can, a v3 artifact is
// mmap'd (no decode, no copy — replicas share the page cache) and verified
// in full, fingerprint included, so a bad file is refused exactly as the
// decode path refuses it; that sequential pass doubles as a prefault.
// Anything else is decoded from the seam's reader. On failure it reports
// whether the failure was transient (the open or read itself errored —
// worth retrying) or permanent (the bytes were read cleanly and are not a
// valid release): the quarantine's retry policy turns on it.
func (g *Registry) openRelease(name, path string) (rel *Release, transient bool, err error) {
	if m, ok := g.fs().(slabMapper); ok {
		slab, fp, size, err := m.MapSlab(path)
		if err != nil {
			// Failing to open or stat the file is transient; anything
			// else is the mapped bytes failing verification.
			var pe *fs.PathError
			return nil, errors.As(err, &pe), fmt.Errorf("%s: %w", path, err)
		}
		if slab != nil {
			return g.newRelease(name, path, slab, fp, size), false, nil
		}
	}
	f, err := g.fs().Open(path)
	if err != nil {
		return nil, true, err
	}
	defer f.Close()
	rel, ioErr, err := g.readRelease(name, path, f)
	if err != nil {
		return nil, ioErr != nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, false, nil
}

// ScanDir loads every *.json and *.bin artifact in dir, naming each release
// after its file (minus the extension); JSON and binary-v2 artifacts are
// equally welcome, exactly as in the upload endpoint. Files whose size and
// mtime are unchanged since the last scan are skipped, preserving their
// warm caches and stats; changed or new files are (re)loaded with an atomic
// swap. When x.json and x.bin both exist, only x.json is considered (one
// file per name keeps the unchanged-file skip meaningful — alternating
// loads would wipe the warm cache on every rescan). It returns the names
// loaded and skipped this scan; per-file load errors are collected rather
// than aborting the scan, so one bad artifact can't block the rest.
//
// Failed loads are quarantined (see quarantine.go): a file that failed is
// not re-read — and not re-reported in the error return — until its {size,
// mtime} change, except that transient I/O failures get maxLoadAttempts
// retries with exponential backoff first. The error return therefore
// reflects the loads actually attempted this scan, so a rescan that only
// skips known-bad unchanged files reports success.
func (g *Registry) ScanDir(dir string) (loaded, skipped []string, err error) {
	jsons, err := g.fs().Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	bins, err := g.fs().Glob(filepath.Join(dir, "*.bin"))
	if err != nil {
		return nil, nil, err
	}
	// One path per name, JSON preferred on a stem collision.
	byName := make(map[string]string, len(jsons)+len(bins))
	for _, path := range append(bins, jsons...) {
		byName[strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))] = path
	}
	// Classify the stems: versioned keys ("taxi@v3") index their base name;
	// malformed '@' spellings are rejected up front, by name alone — their
	// bytes are never read. A bare stem whose base also has versioned files
	// is ambiguous (which artifact should "taxi" serve?) and is rejected the
	// same way rather than guessed at.
	badKey := make(map[string]error)
	maxVer := make(map[string]int)
	for stem := range byName {
		base, v, versioned, err := parseKey(stem)
		if err != nil {
			badKey[byName[stem]] = err
			continue
		}
		if versioned && v > maxVer[base] {
			maxVer[base] = v
		}
	}
	conflict := make(map[string]string)
	for stem, path := range byName {
		if !strings.ContainsRune(stem, '@') && maxVer[stem] > 0 {
			conflict[path] = fmt.Sprintf(
				"ambiguous release name %q: both %s and a versioned family %s@vN are present; remove one",
				stem, filepath.Base(path), stem)
		}
	}
	glob := make([]string, 0, len(byName))
	present := make(map[string]bool, len(byName))
	for _, path := range byName {
		glob = append(glob, path)
		present[path] = true
	}
	sort.Strings(glob)
	g.pruneQuarantine(present)
	g.pruneVanishedVersions(dir, present)
	var errs []string
	for _, path := range glob {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		now := time.Now()
		if err, bad := badKey[path]; bad {
			g.noteConflict(name, path, err.Error(), now)
			continue
		}
		if reason, ok := conflict[path]; ok {
			g.noteConflict(name, path, reason, now)
			continue
		}
		// A conflict record from an earlier scan whose cause is gone (the
		// other side of the ambiguity was removed) is wiped so the file gets
		// a fresh load this very scan.
		g.clearConflict(path)
		// Versions below the retention floor are skipped without a read:
		// reloading them would only re-evict them (churning the version
		// index) — the ingest tier prunes these artifacts shortly anyway.
		if g.keepVersions > 0 {
			if base, v, versioned, err := parseKey(name); err == nil && versioned &&
				v <= maxVer[base]-g.keepVersions {
				skipped = append(skipped, name)
				continue
			}
		}
		info, err := g.fs().Stat(path)
		if err != nil {
			// The file was listed but cannot be statted: a transient
			// filesystem failure (it vanishing between glob and stat lands
			// here too, and resolves by pruning on the next scan). There is
			// no {size, mtime} to key on, so the record uses an impossible
			// size; a later successful stat always reads as a change.
			st := fileState{size: -1, loadedAt: now}
			if g.quarantineGate(path, st, now) {
				continue
			}
			errs = append(errs, err.Error())
			g.noteLoadFailure(name, path, st, true, err, now)
			continue
		}
		st := fileState{size: info.Size(), modTime: info.ModTime(), loadedAt: now}
		if g.quarantineGate(path, st, now) {
			continue
		}
		g.mu.RLock()
		prev, known := g.files[path]
		live, exists := g.entries[name]
		g.mu.RUnlock()
		// Skip only when the live entry still comes from this file (an API
		// POST under the same name must not block the file from being
		// reinstated by the next rescan), {size, mtime} are unchanged, AND
		// the recorded mtime had settled out of its granularity window — a
		// same-size rewrite within the window leaves {size, mtime} intact on
		// coarse-mtime filesystems, so an unsettled match proves nothing.
		if known && exists && live.Source == path &&
			prev.size == st.size && prev.modTime.Equal(st.modTime) && prev.settled() {
			skipped = append(skipped, name)
			continue
		}
		if _, transient, err := g.loadFile(name, path); err != nil {
			errs = append(errs, err.Error())
			g.noteLoadFailure(name, path, st, transient, err, now)
			continue
		}
		g.mu.Lock()
		g.files[path] = st
		delete(g.quarantine, path)
		g.mu.Unlock()
		loaded = append(loaded, name)
	}
	if len(errs) > 0 {
		return loaded, skipped, fmt.Errorf("serve: %s", strings.Join(errs, "; "))
	}
	return loaded, skipped, nil
}
