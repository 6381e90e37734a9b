//go:build race

package hw

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random quarter of the items it is given, so pool reuse cannot be
// measured by counting allocations.
const raceEnabled = true
