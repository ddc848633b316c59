//go:build race

package zone

// raceEnabled gates allocation-count assertions, which the race
// detector's instrumentation would invalidate.
const raceEnabled = true
