package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversRange pins For's contract: every index of [lo, hi) is
// handed to exactly one chunk, at any worker count and grain.
func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, grain := range []int{0, 1, 7, 100} {
			var seen [103]atomic.Int32
			For(workers, 3, len(seen), grain, func(a, b int) {
				for i := a; i < b; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				want := int32(1)
				if i < 3 {
					want = 0
				}
				if got := seen[i].Load(); got != want {
					t.Fatalf("workers=%d grain=%d: index %d handled %d times, want %d", workers, grain, i, got, want)
				}
			}
		}
	}
}

// catch runs fn and returns what it panicked with (nil if it returned).
func catch(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestGroupReraisesWorkerPanic pins that a worker's panic neither kills
// the process nor escapes early: Wait joins every worker first, then
// re-raises the panic on the joining goroutine with the worker's stack.
func TestGroupReraisesWorkerPanic(t *testing.T) {
	var slowDone atomic.Bool
	v := catch(func() {
		var g Group
		g.Go(func() {
			time.Sleep(20 * time.Millisecond)
			slowDone.Store(true)
		})
		g.Go(func() { panic("boom") })
		g.Wait()
	})
	wp, ok := v.(*WorkerPanic)
	if !ok {
		t.Fatalf("Wait panicked with %T %v, want *WorkerPanic", v, v)
	}
	if !slowDone.Load() {
		t.Error("Wait re-raised before every worker joined")
	}
	if wp.Value != "boom" {
		t.Errorf("WorkerPanic.Value = %v, want boom", wp.Value)
	}
	if !strings.Contains(wp.Error(), "boom") || !strings.Contains(string(wp.Stack), "TestGroupReraisesWorkerPanic") {
		t.Errorf("WorkerPanic lacks the value or the worker's stack:\n%s", wp.Error())
	}

	// A clean group waits without panicking.
	if v := catch(func() {
		var g Group
		g.Go(func() {})
		g.Wait()
	}); v != nil {
		t.Fatalf("a clean Wait panicked with %v", v)
	}
}

// TestForReraisesWorkerPanic pins the same for For's chunk workers; an
// error-valued panic stays reachable through errors.Is.
func TestForReraisesWorkerPanic(t *testing.T) {
	errFault := errors.New("fault")
	var chunks atomic.Int32
	v := catch(func() {
		For(4, 0, 400, 1, func(a, b int) {
			chunks.Add(1)
			if a == 0 {
				panic(errFault)
			}
		})
	})
	wp, ok := v.(*WorkerPanic)
	if !ok {
		t.Fatalf("For panicked with %T %v, want *WorkerPanic", v, v)
	}
	if !errors.Is(wp, errFault) {
		t.Errorf("errors.Is(%v, errFault) = false", wp)
	}
	if got := chunks.Load(); got != 4 {
		t.Errorf("%d chunks ran, want all 4", got)
	}
}
