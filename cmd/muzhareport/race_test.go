//go:build race

package main

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
