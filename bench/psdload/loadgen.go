package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; the tests substitute a fake one.
type clock interface {
	now() int64         // nanoseconds since a fixed origin
	sleepUntil(t int64) // returns at t or later
}

// realClock reads the monotonic clock relative to its origin.
type realClock struct{ origin time.Time }

func (c realClock) now() int64 { return int64(time.Since(c.origin)) }

func (c realClock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// timing is one operation in the generator's timeline, in clock
// nanoseconds. A closed-loop operation is due when it is sent.
type timing struct {
	due  int64
	send int64
	end  int64
	// late is how long the operation sat past its due time with a
	// connection free: the generator's oversleep.
	late int64
}

// poissonSchedule draws the arrival offsets (ns from the phase start) of a
// Poisson process of the given total rate over dur, and tags each arrival
// with an index into rates drawn in proportion to them, so several
// independent streams share one schedule. The same rng state gives the same
// schedule.
func poissonSchedule(rng *rand.Rand, rates []float64, dur time.Duration) (due []int64, kind []uint8) {
	total := 0.0
	for _, r := range rates {
		total += r
	}
	if total <= 0 {
		return nil, nil
	}
	expect := int(total*dur.Seconds()) + 16
	due, kind = make([]int64, 0, expect), make([]uint8, 0, expect)
	t := 0.0
	for {
		t += rng.ExpFloat64() / total
		if t >= dur.Seconds() {
			return due, kind
		}
		u, k := rng.Float64()*total, 0
		for k < len(rates)-1 && u >= rates[k] {
			u -= rates[k]
			k++
		}
		due = append(due, int64(t*1e9))
		kind = append(kind, uint8(k))
	}
}

// openLoop sends operation i at origin+due[i] (due ascending) on whichever
// of `workers` connections takes it first; a connection takes the next
// operation as soon as it finishes the previous one, so a slow system builds
// a backlog instead of slowing the schedule. do(worker, i) performs the
// operation; its timing lands in ts[i]. It returns the largest backlog seen:
// operations already due but not yet taken by a connection.
func openLoop(clk clock, origin int64, due []int64, workers int, do func(worker, i int), ts []timing) (backlogMax int) {
	var next atomic.Int64
	var maxBacklog atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := origin + due[i]
				taken := clk.now()
				dueBy := sort.Search(len(due), func(j int) bool { return origin+due[j] > taken })
				for b := int64(dueBy - i); ; {
					cur := maxBacklog.Load()
					if b <= cur || maxBacklog.CompareAndSwap(cur, b) {
						break
					}
				}
				if taken < at {
					clk.sleepUntil(at)
				}
				send := clk.now()
				late := int64(0)
				if taken < at {
					late = send - at
				}
				do(w, i)
				ts[i] = timing{due: at, send: send, end: clk.now(), late: late}
			}
		}()
	}
	wg.Wait()
	return int(maxBacklog.Load())
}

// closedLoop runs `workers` connections back to back — each sends its next
// operation when the previous one answers — until the deadline passes or
// len(ts) operations were issued. It returns the number issued; their
// timings are ts[:n].
func closedLoop(clk clock, workers int, deadline int64, do func(worker, i int), ts []timing) int {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.now() < deadline {
				i := int(next.Add(1) - 1)
				if i >= len(ts) {
					return
				}
				send := clk.now()
				do(w, i)
				ts[i] = timing{due: send, send: send, end: clk.now()}
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(ts))
}
