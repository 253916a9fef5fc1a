package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procSnapshot is the process's cumulative resource use at one instant.
type procSnapshot struct {
	cpuNs      int64  // user + system CPU time (rusage)
	allocBytes uint64 // heap bytes allocated since start
	gcCPU      float64
	totalCPU   float64 // the runtime's own CPU accounting, seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshotProc() procSnapshot {
	var s procSnapshot
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc
	metrics.Read(cpuSamples)
	s.gcCPU, s.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return s
}

// procField reads the first number after key in a /proc file; -1 when the
// file or the key is missing.
func procField(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				if v, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return v
				}
			}
		}
	}
	return -1
}
