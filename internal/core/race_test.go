//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// Puts, so a pin on a path that takes scratch from a pool cannot hold there.
const raceEnabled = true
