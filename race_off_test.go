//go:build !race

package gef

// raceEnabled reports whether the race detector instruments this build;
// timing gates skip themselves under -race (instrumentation swamps the
// costs they compare).
const raceEnabled = false
