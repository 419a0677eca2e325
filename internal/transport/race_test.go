//go:build race

package transport

// raceEnabled reports a -race build, whose instrumentation (and
// randomized sync.Pool) makes allocation counts meaningless.
const raceEnabled = true
