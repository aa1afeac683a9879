//go:build !linux

package main

func fsType(string) string { return "unknown" }

func peakRSSMiB() float64 { return 0 }

// cpuSeconds is unknown here; with 0 every time counts as waiting and
// is reported as measured.
func cpuSeconds() float64 { return 0 }
