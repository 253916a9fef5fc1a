package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// spanLayer names the layer boundary a span records. A span's parent is the
// span of the layer that called it within the same request.
type spanLayer uint64

const (
	layerClient  spanLayer = iota + 1 // the generator's request, send to answer
	layerProxy                        // cluster: the proxy's handler
	layerServe                        // serve: a replica's handler
	layerCore                         // core: the request's traversal, replayed
	layerAppend                       // ingest: one Ingester.Ingest call
	layerCycle                        // a publish cycle, Publish call to first visible read
	layerPublish                      // ingest: Ingester.Publish
	layerScan                         // serve: Registry.ScanDir on one replica
	layerBuild                        // build: psd.Build replayed for a version
	layerEncode                       // build: the v3 encode replayed for a version
)

var layerNames = map[spanLayer]string{
	layerClient: "gen.request", layerProxy: "cluster.proxy", layerServe: "serve.handler",
	layerCore: "core.traverse", layerAppend: "ingest.append", layerCycle: "publish.cycle",
	layerPublish: "ingest.publish", layerScan: "serve.scan", layerBuild: "build.build",
	layerEncode: "build.encode",
}

// span is one timed interval of one request, in clock nanoseconds.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	RID    uint64 `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// newSpan makes the k-th span (k < 16) of layer l in request rid, child of
// the request's first span at layer parent (0 for none). Span ids derive
// from (rid, layer, k), so a child names its parent without the parent
// being passed along.
func newSpan(rid uint64, l spanLayer, k int, parent spanLayer, start, end int64) span {
	s := span{ID: rid<<8 | uint64(l)<<4 | uint64(k), RID: rid, Name: layerNames[l], Start: start, End: end}
	if parent != 0 {
		s.Parent = rid<<8 | uint64(parent)<<4
	}
	return s
}

// tracer keeps the spans recorded inside the fleet's handlers in a
// preallocated buffer; spans past its end are counted, not kept.
type tracer struct {
	clk   clock
	spans []span
	n     atomic.Int64
}

func newTracer(clk clock, capacity int) *tracer {
	return &tracer{clk: clk, spans: make([]span, capacity)}
}

// wrap records a span around h for every request that carries a request
// id; untraced requests pass straight through.
func (t *tracer) wrap(l spanLayer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, ok := requestID(r.URL.RawQuery)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := t.clk.now()
		h.ServeHTTP(w, r)
		t.add(newSpan(rid, l, 0, l-1, start, t.clk.now()))
	})
}

func (t *tracer) add(s span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// recorded returns the kept spans and how many were dropped.
func (t *tracer) recorded() ([]span, int) {
	n := int(t.n.Load())
	return t.spans[:min(n, len(t.spans))], max(n-len(t.spans), 0)
}

// ridParam is the query parameter that carries a traced request's id. The
// proxy forwards query strings unchanged, so the replica sees it too.
const ridParam = "bid"

// requestID extracts the ridParam value from a raw query string.
func requestID(rawQuery string) (uint64, bool) {
	for rest := rawQuery; rest != ""; {
		var kv string
		kv, rest, _ = strings.Cut(rest, "&")
		if v, ok := strings.CutPrefix(kv, ridParam+"="); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			return id, err == nil
		}
	}
	return 0, false
}

// writeSpans writes spans to path, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
