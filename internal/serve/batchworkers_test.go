package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"psd"
	"psd/internal/core"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test, so /batch has an
// idle core to shard onto even on a one-CPU runner.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// shardedBatch returns n distinct rects over the test domain: enough
// misses for the engine to run one worker per 64 of them.
func shardedBatch(n int) []psd.Rect {
	qs := make([]psd.Rect, n)
	for i := range qs {
		fx := float64(i%16) / 16
		fy := float64(i/16) / float64(n/16+1)
		qs[i] = psd.NewRect(90*fx, 90*fy, 90*fx+7+float64(i%5), 90*fy+3+float64(i%7))
	}
	return qs
}

type batchReply struct {
	Counts    []float64      `json:"counts"`
	CacheHits int            `json:"cache_hits"`
	Stats     psd.QueryStats `json:"stats"`
}

func batchBody(t *testing.T, qs []psd.Rect) []byte {
	t.Helper()
	rects := make([][4]float64, len(qs))
	for i, q := range qs {
		rects[i] = [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y}
	}
	body, err := json.Marshal(map[string][][4]float64{"rects": rects})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchIdleCoreWorkersMatchOneWorker pins that sharding /batch misses
// across idle cores changes nothing a client sees: counts, cache_hits and
// stats equal a single-worker engine call's, for a cold batch and for a
// half-cached one — and the handler really did shard.
func TestBatchIdleCoreWorkersMatchOneWorker(t *testing.T) {
	atLeastTwoProcs(t)
	tree := buildTree(t, 61)
	artifact := releaseBytes(t, tree)
	reg := NewRegistry(4096)
	if _, err := reg.Register("r", "test", bytes.NewReader(artifact)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, &API{Registry: reg})
	// The single-worker reference: a twin release with the same cache.
	twin, err := NewRegistry(4096).Register("r", "test", bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	var shards atomic.Int32
	t.Cleanup(core.SetBatchWorkerHook(func(int) { shards.Add(1) }))

	qs := shardedBatch(256)
	for _, batch := range [][]psd.Rect{qs[:128], qs} { // cold, then half cached
		want := make([]float64, len(batch))
		wantHits, wantSt, err := twin.CountBatchIntoCtx(context.Background(), want, batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards.Store(0)
		var got batchReply
		postJSON(t, srv.URL+"/v1/releases/r/batch", batchBody(t, batch), http.StatusOK, &got)
		if n := shards.Load(); n < 2 {
			t.Errorf("/batch of %d rects (%d misses) ran %d shard workers, want >= 2", len(batch), len(batch)-wantHits, n)
		}
		if got.CacheHits != wantHits || got.Stats != wantSt {
			t.Fatalf("/batch hits=%d stats=%+v, one worker hits=%d stats=%+v", got.CacheHits, got.Stats, wantHits, wantSt)
		}
		for i := range want {
			if math.Float64bits(got.Counts[i]) != math.Float64bits(want[i]) {
				t.Fatalf("/batch counts[%d] = %v, one worker %v", i, got.Counts[i], want[i])
			}
		}
	}
}

// TestBatchWorkersFollowLoad pins the worker bound: every idle core on a
// quiet replica, one worker once in-flight requests cover the cores.
func TestBatchWorkersFollowLoad(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	api := &API{}
	for _, c := range []struct{ inflight, want int }{
		{0, procs + 1}, // outside the middleware: nothing else in flight
		{1, procs},
		{2, max(procs-1, 1)},
		{procs, 1},
		{procs + 5, 1},
	} {
		api.inflight.Store(int64(c.inflight))
		if got := api.batchWorkers(); got != c.want {
			t.Errorf("inflight=%d GOMAXPROCS=%d: batchWorkers = %d, want %d", c.inflight, procs, got, c.want)
		}
	}
}

// TestSaturatedBatchAllocationFree pins the saturated replica's path: with
// GOMAXPROCS requests in flight, a /batch engine call runs one worker and
// allocates nothing in steady state.
func TestSaturatedBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	atLeastTwoProcs(t)
	tree := buildTree(t, 62)
	rel, err := NewRegistry(0).Register("r", "test", bytes.NewReader(releaseBytes(t, tree)))
	if err != nil {
		t.Fatal(err)
	}
	api := &API{}
	api.inflight.Store(int64(runtime.GOMAXPROCS(0)))
	workers := api.batchWorkers()
	if workers != 1 {
		t.Fatalf("saturated batchWorkers = %d, want 1", workers)
	}
	qs := shardedBatch(256)
	vals := make([]float64, len(qs))
	ctx := context.Background()
	rel.CountBatchIntoCtx(ctx, vals, qs, workers) // warm the pools
	if avg := testing.AllocsPerRun(20, func() {
		rel.CountBatchIntoCtx(ctx, vals, qs, workers)
	}); avg != 0 {
		t.Fatalf("saturated batch allocates %.1f/op, want 0", avg)
	}
}

// TestBatchWorkerPanicRecovered pins that a panic inside one sharded
// batch worker goroutine reaches the handler's recovery: the request
// answers 500, the panics counter moves, the worker's stack is logged —
// and the replica keeps serving.
func TestBatchWorkerPanicRecovered(t *testing.T) {
	atLeastTwoProcs(t)
	tree := buildTree(t, 63)
	reg := NewRegistry(0)
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	srv := newTestServer(t, &API{Registry: reg, Logger: log.New(&logBuf, "", 0)})
	var fired atomic.Bool
	t.Cleanup(core.SetBatchWorkerHook(func(shard int) {
		if shard == 1 && fired.CompareAndSwap(false, true) {
			panic("injected batch worker panic")
		}
	}))

	qs := shardedBatch(192)
	body := batchBody(t, qs)
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusInternalServerError, nil)
	if !fired.Load() {
		t.Fatal("the batch never reached a second shard worker")
	}
	if logged := logBuf.String(); !strings.Contains(logged, "injected batch worker panic") ||
		!strings.Contains(logged, "worker stack") {
		t.Fatalf("worker panic not logged with its stack:\n%s", logged)
	}
	if st := serverStatsOf(t, srv.URL); st.Panics != 1 {
		t.Fatalf("/stats panics = %d, want 1", st.Panics)
	}

	// Still alive and correct.
	var got batchReply
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusOK, &got)
	slab := tree.Seal()
	for i, q := range qs {
		if want := slab.Count(q); got.Counts[i] != want {
			t.Fatalf("after the panic, counts[%d] = %v, want %v", i, got.Counts[i], want)
		}
	}
}
