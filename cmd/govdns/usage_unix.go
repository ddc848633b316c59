//go:build unix

package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// usage renders the process's CPU time (user + system) and peak
// resident set so far, for the run's closing line.
func usage() string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ""
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Maxrss is in bytes on Darwin and in KiB on Linux and the BSDs.
	rss := int64(ru.Maxrss)
	if runtime.GOOS != "darwin" {
		rss *= 1024
	}
	return fmt.Sprintf(", %v CPU (user+sys), peak RSS %.0f MB", cpu.Round(time.Millisecond), float64(rss)/1e6)
}
