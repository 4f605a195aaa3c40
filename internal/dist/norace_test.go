//go:build !race

package dist

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
