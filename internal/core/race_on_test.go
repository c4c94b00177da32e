//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of its puts
// at random, so what a pooled path allocates says nothing about the design.
const raceEnabled = true
