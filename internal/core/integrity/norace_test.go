//go:build !race

package integrity_test

const raceEnabled = false
