//go:build race

package fanout

// raceEnabled mirrors the build's -race flag; see alloc_norace_test.go.
const raceEnabled = true
