//go:build race

package integrity_test

// raceEnabled: under the race detector sync.Pool drops a random share of
// its puts, so allocation counts of pooled paths are not steady.
const raceEnabled = true
