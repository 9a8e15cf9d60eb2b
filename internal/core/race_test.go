//go:build race

package core

// raceEnabled reports a race-detector build, whose sync.Pool drops puts
// at random.
const raceEnabled = true
