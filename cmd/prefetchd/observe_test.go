package main

import (
	"testing"
	"time"

	"pbppm/internal/loadgen"
	"pbppm/internal/maintain"
)

// TestSessionEndCallbackAllocatesNothing: the OnSessionEnd callback
// hands Maintainer.Observe a pooled view slice, so once the window's
// columns have room a 5-URL session costs no allocation. Building a
// fresh []session.PageView per session made it 4.
func TestSessionEndCallbackAllocatesNothing(t *testing.T) {
	m, err := maintain.New(maintain.Config{Factory: loadgen.PBFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	observe := observeEnded(m)
	urls := []string{"/a", "/b", "/c", "/d", "/e"}
	epoch := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	fresh := epoch.Add(30 * time.Hour)
	// Grow the window's columns with sessions the rebuild then trims, so
	// the measured calls append into room they already have. Each
	// AllocsPerRun makes runs+1 calls.
	const runs = 100
	for i := 0; i < runs+1; i++ {
		observe("old", urls, epoch)
	}
	observe("kept", urls, fresh)
	m.Rebuild(epoch.Add(40 * time.Hour))
	n := testing.AllocsPerRun(runs, func() { observe("client", urls, fresh) })
	if n != 0 && !raceEnabled {
		t.Fatalf("the session-end callback makes %v allocations a session, want 0", n)
	}
	if got := m.WindowSize(); got != runs+2 {
		t.Fatalf("window holds %d sessions, want %d", got, runs+2)
	}
}
