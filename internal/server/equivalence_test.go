package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/sim"
)

// TestLiveScorerMatchesOfflineSimulator is the live≡offline acceptance
// test: the same trace replayed (a) through internal/sim and (b) over
// real HTTP through the server's hint-lifecycle scorer with
// cooperating clients must produce identical §2.3 accounting — both
// paths feed the same quality.Scorer implementation, and this test
// proves the event streams they feed it are equivalent. The server is
// handed the live model and, like every install, serves its frozen
// snapshot; the simulator freezes the model too, and steps each
// session's match state over whole contexts instead of the server's
// 16-URL tail.
func TestLiveScorerMatchesOfflineSimulator(t *testing.T) {
	checkLiveScorerMatchesOfflineSimulator(t, func(m *core.Model) markov.Predictor { return m })
}

// TestLiveScorerMatchesOfflineSimulatorFrozen runs the same replay with
// the server handed the model's frozen snapshot, as prefetchd's
// maintainer publishes it: the server serves the same snapshot the
// other test's install produces, while the simulator freezes the live
// model itself.
func TestLiveScorerMatchesOfflineSimulatorFrozen(t *testing.T) {
	checkLiveScorerMatchesOfflineSimulator(t, func(m *core.Model) markov.Predictor { return m.Freeze() })
}

// checkLiveScorerMatchesOfflineSimulator replays one trace through the
// simulator (predicting from the trained model) and through a live
// server serving serve(model), and requires identical accounting.
func checkLiveScorerMatchesOfflineSimulator(t *testing.T, serve func(*core.Model) markov.Predictor) {
	rng := rand.New(rand.NewSource(42))
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

	// A small site: 40 documents, a few over the 30 KB hint threshold
	// so size filtering is exercised on both paths.
	const nURLs = 40
	store := MapStore{}
	sizes := make(map[string]int64, nURLs)
	urlOf := func(i int) string { return fmt.Sprintf("/p%02d", i) }
	for i := 0; i < nURLs; i++ {
		size := int64(500 + (i*137)%4000)
		if i%13 == 5 {
			size = 40 * 1024 // never hinted, still demand-servable
		}
		store[urlOf(i)] = Document{URL: urlOf(i), Body: make([]byte, size)}
		sizes[urlOf(i)] = size
	}

	// Markov-ish navigation: from page i, go to one of three fixed
	// successors, so the trained model has real predictive power.
	next := func(i int) int {
		switch rng.Intn(3) {
		case 0:
			return (i*7 + 1) % nURLs
		case 1:
			return (i*7 + 2) % nURLs
		default:
			return (i + 11) % nURLs
		}
	}
	makeSession := func(client string, start time.Time, length int) session.Session {
		s := session.Session{Client: client}
		cur := rng.Intn(nURLs)
		at := start
		for v := 0; v < length; v++ {
			s.Views = append(s.Views, session.PageView{
				URL: urlOf(cur), Time: at, Bytes: sizes[urlOf(cur)],
			})
			at = at.Add(time.Duration(3+rng.Intn(20)) * time.Second)
			cur = next(cur)
		}
		return s
	}

	var train []session.Session
	for i := 0; i < 60; i++ {
		train = append(train, makeSession(fmt.Sprintf("t%d", i), base, 6+rng.Intn(5)))
	}
	// Test window: 8 clients, 2 sessions each; a client's sessions sit
	// 2 h apart (> the 30-minute idle rule, so the live server splits
	// contexts exactly where the simulator's per-session contexts end),
	// while different clients interleave within each wave.
	var test []session.Session
	for c := 0; c < 8; c++ {
		client := fmt.Sprintf("client%d", c)
		for k := 0; k < 2; k++ {
			start := base.Add(time.Duration(k)*2*time.Hour + time.Duration(c*7)*time.Second)
			test = append(test, makeSession(client, start, 5+rng.Intn(8)))
		}
	}

	// One trained model serves both replays (prediction is read-only).
	rank := popularity.NewRanking()
	for _, s := range train {
		for _, u := range s.URLs() {
			rank.Observe(u, 1)
		}
	}
	model := core.New(rank, core.Config{})
	sim.Train(model, train)

	// Offline: the simulator's accounting.
	offline := sim.Run(test, sim.Options{
		Predictor:        model,
		MaxPrefetchBytes: 30 * 1024,
		Sizes:            sizes,
	})

	// Live: the same events as HTTP traffic. The fake clock tracks the
	// trace timeline so the server's idle rule sees trace time.
	var clockNanos atomic.Int64
	clockNanos.Store(base.UnixNano())
	srv := New(store, Config{
		Predictor: serve(model),
		MaxHints:  1024, // the simulator does not cap hints per response
		Clock:     func() time.Time { return time.Unix(0, clockNanos.Load()) },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	clients := make(map[string]*Client)
	for _, s := range test {
		if clients[s.Client] == nil {
			c, err := NewClient(ClientConfig{
				ID: s.Client, BaseURL: ts.URL, SynchronousPrefetch: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			clients[s.Client] = c
		}
	}

	// Replay in the simulator's exact global order.
	type event struct {
		t      time.Time
		client string
		si, vi int
	}
	var events []event
	for si, s := range test {
		for vi, v := range s.Views {
			events = append(events, event{t: v.Time, client: s.Client, si: si, vi: vi})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].t.Equal(events[j].t) {
			return events[i].t.Before(events[j].t)
		}
		if events[i].client != events[j].client {
			return events[i].client < events[j].client
		}
		return events[i].si < events[j].si ||
			(events[i].si == events[j].si && events[i].vi < events[j].vi)
	})
	for _, ev := range events {
		clockNanos.Store(ev.t.UnixNano())
		if _, err := clients[ev.client].Get(test[ev.si].Views[ev.vi].URL); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver the trailing hit reports.
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	live := srv.QualityTotal()
	if live.Requests != offline.Requests ||
		live.CacheHits != offline.CacheHits ||
		live.PrefetchHits != offline.PrefetchHits ||
		live.PrefetchedDocs != offline.PrefetchedDocs ||
		live.TransferredBytes != offline.TransferredBytes ||
		live.UsefulBytes != offline.UsefulBytes ||
		live.PrefetchedBytes != offline.PrefetchedBytes {
		t.Fatalf("live scorer diverged from simulator:\nlive    = %+v\noffline = {Requests:%d CacheHits:%d PrefetchHits:%d PrefetchedDocs:%d TransferredBytes:%d UsefulBytes:%d PrefetchedBytes:%d}",
			live, offline.Requests, offline.CacheHits, offline.PrefetchHits,
			offline.PrefetchedDocs, offline.TransferredBytes, offline.UsefulBytes, offline.PrefetchedBytes)
	}

	// The replay must have exercised the interesting paths, or the
	// equivalence is vacuous.
	if live.PrefetchHits == 0 || live.PrefetchedDocs == 0 || live.CacheHits == 0 {
		t.Fatalf("degenerate replay: %+v", live)
	}

	// Derived ratios match to the bit, since both delegate to
	// metrics.Result.
	if live.Precision() != offline.PrefetchPrecision() ||
		live.HitRatio() != offline.HitRatio() ||
		live.TrafficIncrease() != offline.TrafficIncrease() {
		t.Fatalf("ratio mismatch: live (%v, %v, %v) vs offline (%v, %v, %v)",
			live.Precision(), live.HitRatio(), live.TrafficIncrease(),
			offline.PrefetchPrecision(), offline.HitRatio(), offline.TrafficIncrease())
	}
}
