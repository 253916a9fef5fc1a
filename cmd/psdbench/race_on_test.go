//go:build race

package main

// raceEnabled reports that the race detector is active: sync.Pool drops
// items randomly under the detector, so steady-state allocation
// assertions do not hold.
const raceEnabled = true
