//go:build !race

package serve

// raceSlowdown scales the wall-clock bounds of tests: 1 without the race
// detector.
const raceSlowdown = 1
