// Package par provides the small data-parallel helpers the build and query
// pipelines share. Everything here is deterministic-by-construction: the
// helpers only decide *where* work runs, never what it computes, so a loop
// body whose iterations are independent produces bit-identical results at
// any worker count.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers resolves a requested parallelism degree: values > 0 are taken as
// given, anything else means "use every available core" (GOMAXPROCS).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn over contiguous chunks covering [lo, hi), spread across at
// most workers goroutines. Ranges shorter than grain (or workers <= 1) run
// inline on the caller's goroutine — the fast path for small levels and
// sequential builds. fn must treat its chunk independently of the others.
func For(workers, lo, hi, grain int, fn func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if grain < 1 {
		grain = 1
	}
	if workers <= 1 || n <= grain {
		fn(lo, hi)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < grain {
		chunk = grain
	}
	var g Group
	for start := lo; start < hi; start += chunk {
		a, b := start, min(start+chunk, hi)
		g.Go(func() { fn(a, b) })
	}
	g.Wait()
}

// Group runs worker goroutines and joins them. A panic in a worker does
// not kill the process: the worker recovers it, and Wait re-raises it on
// the joining goroutine once every worker has finished — so whatever
// recovers panics there (a server's handler middleware) sees a worker's
// fault as its own. The zero Group is ready to use; a Group is not
// reusable after Wait.
type Group struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	fault *WorkerPanic
}

// Go runs fn on a new goroutine of the group.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				g.mu.Lock()
				if g.fault == nil {
					g.fault = &WorkerPanic{Value: v, Stack: debug.Stack()}
				}
				g.mu.Unlock()
			}
		}()
		fn()
	}()
}

// Wait blocks until every worker returned, then re-raises the first
// worker panic, if any, as a *WorkerPanic.
func (g *Group) Wait() {
	g.wg.Wait()
	if g.fault != nil {
		panic(g.fault)
	}
}

// WorkerPanic is the value Group.Wait re-raises: a worker's panic value
// and the worker's stack, which the joining goroutine's trace lacks.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("worker panic: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// Unwrap exposes a worker's error-valued panic to errors.Is and errors.As.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}
