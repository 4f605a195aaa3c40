//go:build race

package dist

// raceEnabled reports a race-detector build, whose sync.Pool drops
// pooled objects at random, so allocation counts are noise under it.
const raceEnabled = true
