//go:build race

package racetest

// Enabled reports whether the race detector is instrumenting this
// build.
const Enabled = true
