package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"psd/internal/daemon"
	"psd/internal/serve"
)

// Manifest rollouts, fleet side. The coordinator advances a manifest
// replica-by-replica: each replica pulls, verifies, and atomically
// swaps the artifact set (serve.Registry.ApplyManifest — a failed apply
// leaves the replica untouched), and the coordinator only moves to the
// next replica once the updated one (a) reports /readyz, (b) reports
// the new manifest version, and (c) answers the canary queries
// bit-identically to the pre-rollout fleet. Any gate failing rolls the
// already-updated replicas back to their previous manifests and reports
// the rollout failed — the fleet is left homogeneous on the old
// version, never split.
//
// The bit-compare gate leans on the serving invariant: a published
// release's answers are deterministic, so a rollout that does not
// intend to change answers (format migration, re-publication,
// infrastructure moves) must produce byte-for-byte equal counts. A
// rollout that *does* change data sets "canary": "ok" to gate on
// availability only.

// Canary modes.
const (
	// CanaryBitCompare requires the updated replica's canary answers to
	// equal the pre-rollout fleet's bit-for-bit (the default).
	CanaryBitCompare = "bitcompare"
	// CanaryOK only requires canary queries to answer 200 with finite
	// counts — for rollouts that intentionally change release data.
	CanaryOK = "ok"
)

// RolloutRequest is the body of POST /v1/rollout.
type RolloutRequest struct {
	Manifest serve.Manifest `json:"manifest"`
	// Canary is the gating mode: CanaryBitCompare (default) or CanaryOK.
	Canary string `json:"canary,omitempty"`
}

// BackendRollout reports one backend's fate in a rollout.
type BackendRollout struct {
	URL string `json:"url"`
	// Status: "updated", "failed", "rolled-back", "not-attempted", or
	// "rollback-failed" (the bad place: a replica that could not be
	// restored — it keeps serving the new version and needs an operator).
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// RolloutResult is the JSON shape of POST /v1/rollout's response.
type RolloutResult struct {
	Version    string           `json:"version"`
	OK         bool             `json:"ok"`
	Updated    int              `json:"updated"`
	RolledBack bool             `json:"rolled_back"`
	Backends   []BackendRollout `json:"backends"`
	Error      string           `json:"error,omitempty"`
}

// Rollout gate knobs (fields would be overkill as flags; tests shorten
// them through the proxy struct).
const (
	DefaultRolloutReadyTimeout = 30 * time.Second
	DefaultRolloutPoll         = 100 * time.Millisecond
)

// rolloutGates carries the per-rollout state: canary URLs and their
// pre-rollout baseline answers.
type rolloutGates struct {
	mode string
	// checks are canary queries: path+query (relative), with the
	// baseline answer for bit-comparison (nil when the release is new to
	// the fleet, in which case only 200+finite is required).
	checks []canaryCheck
}

type canaryCheck struct {
	release  string
	rectSpec string
	baseline *float64
}

func (p *Proxy) handleRollout(w http.ResponseWriter, r *http.Request) {
	var req RolloutRequest
	body := http.MaxBytesReader(w, r.Body, p.maxBody())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		daemon.WriteError(w, http.StatusBadRequest, "bad rollout body: %v", err)
		return
	}
	if err := req.Manifest.Validate(); err != nil {
		daemon.WriteError(w, http.StatusBadRequest, "invalid manifest: %v", err)
		return
	}
	switch req.Canary {
	case "":
		req.Canary = CanaryBitCompare
	case CanaryBitCompare, CanaryOK:
	default:
		daemon.WriteError(w, http.StatusBadRequest, "unknown canary mode %q (want %q or %q)",
			req.Canary, CanaryBitCompare, CanaryOK)
		return
	}
	res := p.rollout(r.Context(), req)
	status := http.StatusOK
	if !res.OK {
		status = http.StatusBadGateway
	}
	daemon.WriteJSON(w, status, res)
}

// rollout runs the coordinator. It never leaves the fleet split on
// purpose: the first gate failure triggers a rollback of everything
// updated so far.
func (p *Proxy) rollout(ctx context.Context, req RolloutRequest) *RolloutResult {
	p.rollouts.Add(1)
	res := &RolloutResult{Version: req.Manifest.Version}
	// The slice is fully allocated up front so statusOf's pointers into it
	// stay valid (append would reallocate from under them).
	res.Backends = make([]BackendRollout, len(p.ordered))
	statusOf := make(map[string]*BackendRollout, len(p.ordered))
	for i, b := range p.ordered {
		res.Backends[i] = BackendRollout{URL: b.URL, Status: "not-attempted"}
		statusOf[b.URL] = &res.Backends[i]
	}

	// Each backend's pre-rollout manifest is snapshotted just before its
	// own update (not in a fleet-wide pre-pass): a replica that dies
	// mid-rollout then fails at its own step — rolling back only the
	// replicas actually updated — instead of blocking the whole rollout
	// up front.
	snapshots := make(map[string]*serve.Manifest, len(p.ordered))

	gates, err := p.canaryBaselines(ctx, req)
	if err != nil {
		res.Error = fmt.Sprintf("canary baseline: %v", err)
		return res
	}

	// applied tracks replicas whose ApplyManifest succeeded — the set that
	// must be restored on failure. A replica whose own post-apply gate
	// (readyz, version, canary) fails is already in this set, so it rolls
	// back along with its predecessors.
	var applied []*Backend
	fail := func(b *Backend, what string, err error) *RolloutResult {
		res.Error = fmt.Sprintf("%s: %s: %v", b.URL, what, err)
		statusOf[b.URL].Status = "failed"
		statusOf[b.URL].Error = res.Error
		p.logf("rollout %q: %s — rolling back %d applied replica(s)",
			req.Manifest.Version, res.Error, len(applied))
		if len(applied) > 0 {
			p.rollbacks.Add(1)
			res.RolledBack = true
			for _, ab := range applied {
				if rerr := p.restore(ctx, ab.URL, snapshots[ab.URL]); rerr != nil {
					statusOf[ab.URL].Status = "rollback-failed"
					statusOf[ab.URL].Error = rerr.Error()
					p.logf("rollout %q: ROLLBACK FAILED on %s: %v (replica left on new version)",
						req.Manifest.Version, ab.URL, rerr)
				} else {
					statusOf[ab.URL].Status = "rolled-back"
				}
			}
		}
		return res
	}

	for _, b := range p.ordered {
		snap, err := p.fetchManifest(ctx, b.URL)
		if err != nil {
			return fail(b, "snapshot", err)
		}
		snapshots[b.URL] = snap // nil when none applied yet
		if err := p.applyManifest(ctx, b.URL, req.Manifest); err != nil {
			// ApplyManifest is atomic on the replica: a failed apply changed
			// nothing there, so b itself needs no rollback.
			return fail(b, "apply", err)
		}
		applied = append(applied, b)
		if err := p.awaitReady(ctx, b.URL); err != nil {
			return fail(b, "readyz", err)
		}
		m, err := p.fetchManifest(ctx, b.URL)
		if err != nil {
			return fail(b, "verify version", err)
		}
		if m == nil || m.Version != req.Manifest.Version {
			got := "<none>"
			if m != nil {
				got = m.Version
			}
			return fail(b, "verify version", fmt.Errorf("replica reports %q, want %q", got, req.Manifest.Version))
		}
		if err := p.runCanary(ctx, b.URL, gates); err != nil {
			return fail(b, "canary", err)
		}
		statusOf[b.URL].Status = "updated"
		res.Updated++
		p.logf("rollout %q: %s updated (%d/%d)", req.Manifest.Version, b.URL, res.Updated, len(p.ordered))
	}
	res.OK = true
	return res
}

// canaryBaselines builds the canary query set and, in bit-compare mode,
// records the pre-rollout fleet's answers. Canary rectangles per
// release: the release's full domain plus its lower-left quadrant —
// one query that touches every subtree root and one that forces a real
// decomposition walk.
func (p *Proxy) canaryBaselines(ctx context.Context, req RolloutRequest) (*rolloutGates, error) {
	gates := &rolloutGates{mode: req.Canary}
	// Domains of currently-served releases, from the first backend that
	// answers (every replica agrees bit-for-bit on served content).
	type relInfo struct {
		Name   string     `json:"name"`
		Domain [4]float64 `json:"domain"`
	}
	var infos []relInfo
	var src string // the replica that answered; baselines come from it too
	var listErr error
	for _, b := range p.ordered {
		if b.State() == Down {
			continue
		}
		var out struct {
			Releases []relInfo `json:"releases"`
		}
		if listErr = p.getJSON(ctx, b.URL+"/v1/releases", &out); listErr == nil {
			infos = out.Releases
			src = b.URL
			break
		}
	}
	if src == "" {
		return nil, fmt.Errorf("no replica answered the release listing: %w", listErr)
	}
	domains := make(map[string][4]float64, len(infos))
	for _, in := range infos {
		domains[in.Name] = in.Domain
	}
	for _, e := range req.Manifest.Releases {
		d, served := domains[e.Name]
		if !served {
			// New to the fleet: no baseline; gated on 200+finite only.
			gates.checks = append(gates.checks, canaryCheck{release: e.Name,
				rectSpec: "-1e18,-1e18,1e18,1e18"})
			continue
		}
		mid := [2]float64{(d[0] + d[2]) / 2, (d[1] + d[3]) / 2}
		rects := []string{
			fmt.Sprintf("%g,%g,%g,%g", d[0], d[1], d[2], d[3]),
			fmt.Sprintf("%g,%g,%g,%g", d[0], d[1], mid[0], mid[1]),
		}
		for _, spec := range rects {
			c := canaryCheck{release: e.Name, rectSpec: spec}
			if req.Canary == CanaryBitCompare {
				val, err := p.canaryCount(ctx, src, e.Name, spec)
				if err != nil {
					return nil, fmt.Errorf("baseline for %q rect %s: %w", e.Name, spec, err)
				}
				c.baseline = &val
			}
			gates.checks = append(gates.checks, c)
		}
	}
	return gates, nil
}

// runCanary checks every canary query directly against one updated
// replica.
func (p *Proxy) runCanary(ctx context.Context, baseURL string, gates *rolloutGates) error {
	for _, c := range gates.checks {
		got, err := p.canaryCount(ctx, baseURL, c.release, c.rectSpec)
		if err != nil {
			return fmt.Errorf("release %q rect %s: %w", c.release, c.rectSpec, err)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			return fmt.Errorf("release %q rect %s: non-finite count %v", c.release, c.rectSpec, got)
		}
		if c.baseline != nil && got != *c.baseline {
			return fmt.Errorf("release %q rect %s: answer changed %v -> %v (bit-compare canary; set canary=%q to allow data changes)",
				c.release, c.rectSpec, *c.baseline, got, CanaryOK)
		}
	}
	return nil
}

// canaryCount asks one replica one canary query.
func (p *Proxy) canaryCount(ctx context.Context, baseURL, release, rectSpec string) (float64, error) {
	var out struct {
		Count float64 `json:"count"`
	}
	url := fmt.Sprintf("%s/v1/releases/%s/count?rect=%s", baseURL, release, rectSpec)
	if err := p.getJSON(ctx, url, &out); err != nil {
		return 0, err
	}
	return out.Count, nil
}

// fetchManifest reads a replica's current manifest; (nil, nil) when the
// replica has none applied.
func (p *Proxy) fetchManifest(ctx context.Context, baseURL string) (*serve.Manifest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/manifest: status %d", resp.StatusCode)
	}
	var st serve.ManifestStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st.Manifest, nil
}

// applyManifest POSTs a manifest to one replica.
func (p *Proxy) applyManifest(ctx context.Context, baseURL string, m serve.Manifest) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/manifest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST /v1/manifest: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// restore rolls one replica back to its pre-rollout manifest. A replica
// that had none cannot be restored by manifest — but a replica without
// a manifest also can't have been displaced by one that failed to
// apply, so this only triggers when the new manifest applied cleanly
// and a later replica's gate failed; report it rather than guess.
func (p *Proxy) restore(ctx context.Context, baseURL string, old *serve.Manifest) error {
	if old == nil {
		return fmt.Errorf("no previous manifest to restore")
	}
	if err := p.applyManifest(ctx, baseURL, *old); err != nil {
		return err
	}
	return p.awaitReady(ctx, baseURL)
}

// awaitReady polls a replica's /readyz until it answers 200 or the
// rollout gate times out.
func (p *Proxy) awaitReady(ctx context.Context, baseURL string) error {
	timeout := p.RolloutReadyTimeout
	if timeout <= 0 {
		timeout = DefaultRolloutReadyTimeout
	}
	poll := p.RolloutPoll
	if poll <= 0 {
		poll = DefaultRolloutPoll
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		rctx, cancel := context.WithTimeout(ctx, poll*10)
		lastErr = p.getJSON(rctx, baseURL+"/readyz", nil)
		cancel()
		if lastErr == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("not ready after %s: %w", timeout, lastErr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// getJSON issues one GET and decodes a 200 JSON body into out (out may
// be nil to just check the status).
func (p *Proxy) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
