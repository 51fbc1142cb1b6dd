//go:build !race

package forecast

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
