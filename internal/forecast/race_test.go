//go:build race

package forecast

// raceEnabled reports a -race build. Its sync.Pool drops items at random,
// so pooled FFT plans are rebuilt and allocation counts say nothing.
const raceEnabled = true
