//go:build race

package shard

// raceEnabled reports whether the race detector is instrumenting this build.
// Allocation-count tests skip under -race: the detector's shadow bookkeeping
// shows up in testing.AllocsPerRun, and sync.Pool drops items at random.
const raceEnabled = true
