//go:build unix

package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// usage renders the process's CPU time (user + system) and its peak
// resident set so far, each as a ", …" suffix for a stderr line.
func usage() (cpu, rss string) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return "", ""
	}
	used := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Maxrss is in bytes on Darwin and in KiB on Linux and the BSDs.
	peak := int64(ru.Maxrss)
	if runtime.GOOS != "darwin" {
		peak *= 1024
	}
	return fmt.Sprintf(", %v CPU (user+sys)", used.Round(time.Millisecond)),
		fmt.Sprintf(", peak RSS %.0f MB", float64(peak)/1e6)
}
