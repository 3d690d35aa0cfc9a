//go:build !race

package shard

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
