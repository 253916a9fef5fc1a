package psd

import (
	"bytes"
	"testing"

	"psd/internal/checksum"
	"psd/internal/core"
)

// The golden fixtures under testdata/ pin one release per kind: the default
// exponential-mechanism medians with noise. These fingerprints pin the
// release bytes the fixtures do not reach — the other public median methods
// and core's exact baselines — so a change to how medians, count noise or
// the kd-cell grid draw their randomness shows up as a changed fingerprint.
// Each value is checksum.Fingerprint (CRC-64/ISO) over the v3 artifact.

// fingerprintMedians are the public median methods of the data-dependent
// kinds whose splits Options.Median selects.
var fingerprintMedians = []struct {
	method MedianMethod
	name   string
}{
	{ExponentialMedian, "em"},
	{SmoothMedian, "ss"},
	{SampledExponentialMedian, "em-s"},
}

// wantPublicFingerprints is keyed "<kind>/<median>".
var wantPublicFingerprints = map[string]string{
	"kd/em":          "caf34cb80801aabf",
	"kd/ss":          "811756d72adb56ff",
	"kd/em-s":        "c99ae3c5a205bd4f",
	"kd-hybrid/em":   "32cd8a8b89b03d40",
	"kd-hybrid/ss":   "81bcd4a57a341253",
	"kd-hybrid/em-s": "73f75aebcb611c5b",
	"hilbert-r/em":   "58f9bf673cb05f82",
	"hilbert-r/ss":   "0c2ace913f93efbd",
	"hilbert-r/em-s": "d78e33ec05428f99",
}

// wantCoreFingerprints is keyed "<kind>/<private|nonprivate|truemedians>".
// Quadtree ignores medians, so its truemedians release is its private one.
var wantCoreFingerprints = map[string]string{
	"quadtree/private":         "e846ae12271d6118",
	"quadtree/nonprivate":      "ed7c6cde219d9bba",
	"quadtree/truemedians":     "e846ae12271d6118",
	"kd/private":               "0385881d77403952",
	"kd/nonprivate":            "982b23ef775bf208",
	"kd/truemedians":           "4fb095e9d60b09bf",
	"kd-hybrid/private":        "0a89dbc93d634ed2",
	"kd-hybrid/nonprivate":     "0e24c9d37f5a9e8a",
	"kd-hybrid/truemedians":    "9e12a439066a0c98",
	"hilbert-r/private":        "6536ec3cad6c93e4",
	"hilbert-r/nonprivate":     "e2793f0d98f02f9f",
	"hilbert-r/truemedians":    "35e2890b39a0d428",
	"kd-cell/private":          "ca2276f5bd2544d8",
	"kd-cell/nonprivate":       "f0004b6bc2d9850d",
	"kd-cell/truemedians":      "5f437fb11d10ae20",
	"kd-noisymean/private":     "fe80340437513dad",
	"kd-noisymean/nonprivate":  "8152be8e1b95085c",
	"kd-noisymean/truemedians": "56c90888bac5f3eb",
	"privtree/private":         "d4232460eaa35fa0",
	"privtree/nonprivate":      "2381dbe6c57349af",
	"privtree/truemedians":     "00259ef694c958f7",
}

func v3Fingerprint(t *testing.T, write func(w *bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return checksum.FormatFingerprint(checksum.Checksum(buf.Bytes(), checksum.Fingerprint))
}

func checkFingerprint(t *testing.T, want map[string]string, key, got string) {
	t.Helper()
	if w, ok := want[key]; !ok {
		t.Errorf("%q: no recorded fingerprint; got %q", key, got)
	} else if got != w {
		t.Errorf("%q: fingerprint %s, want %s", key, got, w)
	}
}

func TestReleaseFingerprints(t *testing.T) {
	pts := clusteredPoints(5000, goldenDomain, 99)

	for _, kind := range []Kind{KDTree, KDHybrid, HilbertRTree} {
		for _, m := range fingerprintMedians {
			tree, err := Build(pts, goldenDomain, Options{
				Kind: kind, Height: 4, Epsilon: 1, Seed: goldenSeed, Median: m.method,
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, m.name, err)
			}
			got := v3Fingerprint(t, func(w *bytes.Buffer) error { return tree.WriteBinaryV3Release(w) })
			checkFingerprint(t, wantPublicFingerprints, kind.String()+"/"+m.name, got)
		}
	}

	kinds := []core.Kind{core.Quadtree, core.KD, core.Hybrid, core.HilbertR,
		core.KDCell, core.KDNoisyMean, core.PrivTree}
	modes := []struct {
		name string
		set  func(*core.Config)
	}{
		{"private", func(*core.Config) {}},
		{"nonprivate", func(c *core.Config) { c.NonPrivate = true }},
		{"truemedians", func(c *core.Config) { c.TrueMedians = true }},
	}
	for _, kind := range kinds {
		for _, mode := range modes {
			// A 2-unit cell keeps kd-cell's grid at 50x50 instead of the
			// default ~2182x2182; every other kind ignores CellSize.
			cfg := core.Config{Kind: kind, Height: 4, Epsilon: 1, Seed: goldenSeed, CellSize: 2}
			mode.set(&cfg)
			p, err := core.Build(pts, goldenDomain, cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, mode.name, err)
			}
			got := v3Fingerprint(t, func(w *bytes.Buffer) error { _, err := p.WriteBinaryV3(w); return err })
			checkFingerprint(t, wantCoreFingerprints, kind.String()+"/"+mode.name, got)
		}
	}
}
