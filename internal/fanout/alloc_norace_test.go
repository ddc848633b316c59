//go:build !race

package fanout

// raceEnabled mirrors the build's -race flag so allocation gates can
// skip themselves: the race runtime instruments allocations and makes
// testing.AllocsPerRun meaningless.
const raceEnabled = false
