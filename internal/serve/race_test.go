//go:build race

package serve

// raceEnabled reports a -race build, whose shadow memory and slower
// collector make live-heap measurements meaningless.
const raceEnabled = true
