//go:build race

package jobs

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
