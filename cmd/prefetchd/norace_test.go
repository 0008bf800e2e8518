//go:build !race

package main

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of what is put back.
const raceEnabled = false
