package main

// getg returns the address of the calling goroutine's runtime
// descriptor: unique among live goroutines, and read in a nanosecond.
func getg() uintptr
