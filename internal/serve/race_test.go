//go:build race

package serve

// raceSlowdown scales the wall-clock bounds of tests: the race detector
// slows execution several fold.
const raceSlowdown = 5
