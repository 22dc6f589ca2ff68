//go:build race

package server

// raceEnabled reports whether the race detector instruments this
// build; the property tests draw fewer random values under it.
const raceEnabled = true
