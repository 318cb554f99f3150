//go:build race

package service

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-count tests skip under it (instrumentation
// allocates).
const raceEnabled = true
