//go:build race

package archive

// raceEnabled reports a -race build.
const raceEnabled = true
