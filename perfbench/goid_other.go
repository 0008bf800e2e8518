//go:build !amd64

package main

import "runtime"

// getg returns the calling goroutine's id, parsed from its stack
// header; slower than reading the descriptor address on amd64, but
// equally unique among live goroutines.
func getg() uintptr {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
