//go:build race

package server

// Under the race detector sync.Pool drops a share of its Puts on
// purpose, so a pooled arena is rebuilt at random and allocation counts
// over it mean nothing.
func init() { raceEnabled = true }
