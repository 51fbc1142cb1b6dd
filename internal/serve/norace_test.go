//go:build !race

package serve

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
