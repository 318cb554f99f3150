//go:build !race

// Package racetest tells a test whether the race detector is
// instrumenting the build: allocation-count tests skip under it, since
// the instrumentation allocates beside the code it instruments. Only
// tests import it.
package racetest

// Enabled reports whether the race detector is instrumenting this
// build.
const Enabled = false
