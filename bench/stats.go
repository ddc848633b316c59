package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile by the same exclusive
// method as Python's statistics.quantiles(xs, n=4), which is what the
// driver uses for its spread check. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based positions
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// percentile reads the p-th percentile (0 < p < 100) off an ascending
// slice by the nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// supported reports whether n samples leave at least minBeyond beyond
// the p-th percentile.
func supported(n int, p float64) bool {
	const eps = 1e-9 // 100-99.9 is not exactly 0.1
	return float64(n)*(100-p)/100 >= minBeyond-eps
}

// tailPct is the percentile op_tail_ms reports. p99 would be
// supported by the sample counts but not by the box: a cold-start scan's
// slowest 1% is its first wave of 128 cold-cache domains (1% of 13,635
// is 136), so p99 sits on the edge of that wave and flips between it
// and the steady state from run to run (quartile spread 20-23% over ten
// seeds, against 5-8% for p90). Every run prints p99 beside it.
const tailPct = 90

// tail returns the tailPct-th percentile if the sample supports it,
// else the maximum, and says which it returned.
func tail(sorted []float64) (float64, string) {
	if supported(len(sorted), tailPct) {
		return percentile(sorted, tailPct), "p" + strconv.Itoa(tailPct)
	}
	if len(sorted) == 0 {
		return 0, "none"
	}
	return sorted[len(sorted)-1], "max"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated. It stops
// the world to flush per-P caches (runtime/metrics would not, and is
// off by whole spans), so call it outside timed windows.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// rssWindow measures peak resident memory over the timed window only:
// set-up (reference scans at 8x the workload's concurrency) would
// otherwise own the high-water mark and hide what the workload holds.
// It returns freed memory to the OS, then resets the kernel's
// high-water mark through /proc/self/clear_refs. Where that is not
// permitted, peakMB falls back to rusage Maxrss over the whole process
// and says so.
type rssWindow struct{ reset bool }

func startRSSWindow() rssWindow {
	debug.FreeOSMemory()
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return rssWindow{reset: err == nil}
}

func (w rssWindow) peakMB() (mb float64, source string) {
	if w.reset {
		if b, err := os.ReadFile("/proc/self/status"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					if f := strings.Fields(rest); len(f) > 0 {
						if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
							return kb / 1024, "VmHWM over the timed window"
						}
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, "unavailable"
	}
	return float64(ru.Maxrss) / 1024, "rusage Maxrss, set-up included"
}

// timeOp runs fn n times on the calling goroutine and returns mean
// nanoseconds and heap allocations per call.
func timeOp(n int, fn func(i int)) (ns, allocs float64) {
	a0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	a1 := mallocs()
	return float64(d.Nanoseconds()) / float64(n), float64(a1-a0) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func fmtCount(n int) string { return fmt.Sprintf("n=%d", n) }
