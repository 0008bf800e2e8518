package server

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSessionURLsSurvivePoolCompaction runs 200 interleaved clients
// through sessions that grow past their first run and end by the idle
// rule or by expiry, so every shard's URL pool moves runs, goes mostly
// dead and is compacted again and again, and expiry empties the shards
// now and then. Each ended session must reach OnSessionEnd, and each
// open one read back, with exactly its URLs in click order; every
// shard's pool must account for each entry as a live run's room or
// dead; and a flush must leave every shard holding nothing.
func TestSessionURLsSurvivePoolCompaction(t *testing.T) {
	const (
		clients = 200
		rounds  = 60
		pages   = 20
	)
	store := MapStore{}
	for i := 0; i < pages; i++ {
		u := fmt.Sprintf("/p%d", i)
		store[u] = Document{URL: u, Body: make([]byte, 64)}
	}
	base := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	var now time.Duration
	var mu sync.Mutex
	got := map[string][][]string{}
	srv := New(store, Config{
		SessionIdle: time.Minute,
		Clock:       func() time.Time { return base.Add(now) },
		OnSessionEnd: func(client string, urls []string, _ time.Time) {
			mu.Lock()
			got[client] = append(got[client], urls)
			mu.Unlock()
		},
	})
	want := map[string][][]string{}
	open := map[string][]string{}
	last := map[string]time.Duration{}
	requests := 0
	for r := 0; r < rounds; r++ {
		// Every 7th round comes after an idle gap, so each client's next
		// request ends its session; sessions grow to 1–9 clicks between.
		if r%7 == 6 {
			now += 2 * time.Minute
			if r%14 == 13 {
				srv.ExpireSessions()
				for c := 0; c < clients; c++ {
					if client := fmt.Sprintf("c%d", c); open[client] != nil {
						want[client] = append(want[client], open[client])
						open[client] = nil
					}
				}
			}
		}
		for c := 0; c < clients; c++ {
			if (c+r)%4 == 0 {
				continue
			}
			client := fmt.Sprintf("c%d", c)
			if open[client] != nil && now-last[client] > time.Minute {
				want[client] = append(want[client], open[client])
				open[client] = nil
			}
			last[client] = now
			u := fmt.Sprintf("/p%d", (c*7+r)%pages)
			req := httptest.NewRequest("GET", u, nil)
			req.Header.Set(HeaderClientID, client)
			srv.ServeHTTP(httptest.NewRecorder(), req)
			open[client] = append(open[client], u)
			requests++
			now += time.Millisecond
		}
	}
	mu.Lock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ended sessions delivered %d clients' sessions, want %d, or their URLs differ", len(got), len(want))
	}
	mu.Unlock()
	for client, urls := range open {
		if ctx := srv.contextURLs(client); !reflect.DeepEqual(ctx, urls) {
			t.Fatalf("%s: open session reads %q, want %q", client, ctx, urls)
		}
	}
	// Without compaction the pools would hold at least one id per
	// request ever served.
	pooled := 0
	for i := range srv.shards {
		sh := &srv.shards[i]
		room := 0
		for _, s := range sh.contexts {
			room += int(runRoom(sh.sessions.at(s).n))
		}
		if len(sh.urls)-sh.deadURLs != room {
			t.Fatalf("shard %d: pool of %d with %d dead, but its open runs have room for %d", i, len(sh.urls), sh.deadURLs, room)
		}
		pooled += len(sh.urls)
	}
	if pooled >= requests {
		t.Fatalf("the pools hold %d ids after %d requests: none was compacted", pooled, requests)
	}

	srv.FlushSessions()
	for client, urls := range open {
		want[client] = append(want[client], urls)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the flush delivered other sessions than were open")
	}
	for i := range srv.shards {
		if sh := &srv.shards[i]; sh.sessions.chunks != nil || sh.hints.chunks != nil || sh.urls != nil {
			t.Fatalf("shard %d holds %d session chunks, %d hint chunks and %d pooled ids after the flush",
				i, len(sh.sessions.chunks), len(sh.hints.chunks), len(sh.urls))
		}
	}
}

// TestURLTableConcurrentIntern has goroutines number the same URLs in
// different orders while others read them back, crossing many
// promotions of the table's snapshot: every URL gets one id, and each id
// reads back as its URL.
func TestURLTableConcurrentIntern(t *testing.T) {
	const (
		workers = 8
		urls    = 500
	)
	// Each worker visits every URL once, in an order of its own: no
	// stride shares a factor with urls.
	strides := [workers]int{1, 3, 7, 11, 13, 17, 19, 23}
	table := newURLTable()
	ids := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, urls)
			for k := 0; k < urls; k++ {
				i := (k*strides[w] + w) % urls
				u := fmt.Sprintf("/u%d", i)
				ids[w][i] = table.intern(u, u)
				if back := table.url(ids[w][i]); back != u {
					t.Errorf("id %d reads back %q, want %q", ids[w][i], back, u)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for i := 0; i < urls; i++ {
		for w := 1; w < workers; w++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("/u%d numbered %d and %d", i, ids[0][i], ids[w][i])
			}
		}
		if seen[ids[0][i]] {
			t.Fatalf("id %d numbers two URLs", ids[0][i])
		}
		seen[ids[0][i]] = true
	}
	if n := len(table.read.Load().urls); n > urls {
		t.Fatalf("snapshot holds %d URLs, only %d were interned", n, urls)
	}
}
