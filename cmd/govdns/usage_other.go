//go:build !unix

package main

// usage has nothing to add where getrusage is unavailable.
func usage() (cpu, rss string) { return "", "" }
