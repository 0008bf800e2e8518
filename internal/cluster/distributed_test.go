package cluster

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/server"
	"pbppm/internal/session"
)

// gradedKey tallies hint-lifecycle events by both transition and the
// popularity grade the serving tier stamped on them. Grades come from
// the grader each shard holds at event time, so this is the surface
// that silently degrades when a remote shard serves without the
// publisher's ranking: every event collapses to grade 0.
type gradedKey struct {
	Type  server.HintEventType
	Grade popularity.Grade
}

type gradedTally struct {
	mu sync.Mutex
	n  map[gradedKey]int
}

func (g *gradedTally) record(ev server.HintEvent) {
	g.mu.Lock()
	if g.n == nil {
		g.n = make(map[gradedKey]int)
	}
	g.n[gradedKey{ev.Type, ev.Grade}]++
	g.mu.Unlock()
}

func (g *gradedTally) snapshot() map[gradedKey]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[gradedKey]int, len(g.n))
	for k, v := range g.n {
		out[k] = v
	}
	return out
}

func equalTallies(a, b map[gradedKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// distributionFactory mirrors the serving factory: PB-PPM over the
// window's ranking.
func distributionFactory(rank *popularity.Ranking) markov.Predictor {
	return core.New(rank, core.Config{})
}

// trainedPublisher builds a maintainer whose window reproduces the
// trainedModel fixture's chains, rebuilt so the published model is the
// frozen PB-PPM snapshot and the ranking is window-derived.
func trainedPublisher(t *testing.T, base time.Time) *maintain.Maintainer {
	t.Helper()
	m, err := maintain.New(maintain.Config{Factory: distributionFactory})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(hour int, urls ...string) session.Session {
		s := session.Session{Client: "history"}
		for i, u := range urls {
			s.Views = append(s.Views, session.PageView{
				URL:  u,
				Time: base.Add(time.Duration(hour-24)*time.Hour + time.Duration(i)*time.Minute),
			})
		}
		return s
	}
	for i := 0; i < 5; i++ {
		m.Observe(mk(i, "/home", "/news", "/news/today"))
		m.Observe(mk(i, "/sports", "/blog"))
	}
	if m.Rebuild(base) == nil {
		t.Fatal("publisher rebuild failed")
	}
	return m
}

// TestDistributedEquivalenceWithInProcessCluster is the PR's
// acceptance-criteria test: an in-process cluster and a
// separate-process topology — shard servers behind a cluster of
// remote backends, each fed the model and popularity ranking through the
// snapshot-distribution channel instead of sharing memory — must
// produce identical integer hint accounting (issued, fetched, hit,
// wasted), identical quality snapshots, and identical grade labels on
// every lifecycle event.
func TestDistributedEquivalenceWithInProcessCluster(t *testing.T) {
	base := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)

	// In-process arm: the cluster shares the publisher's model and
	// ranking by pointer, exactly as prefetchd -shards wires it.
	runInProcess := func(shards int) (quality.Snapshot, server.Stats, map[gradedKey]int) {
		pubM := trainedPublisher(t, base)
		var nanos atomic.Int64
		tally := &gradedTally{}
		c, err := New(Config{
			Shards: shards,
			Store:  testStore(),
			ShardConfig: server.Config{
				Predictor:   pubM.Predictor(),
				Grades:      pubM.Ranking(),
				Clock:       func() time.Time { return base.Add(time.Duration(nanos.Load())) },
				OnHintEvent: tally.record,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(c)
		defer ts.Close()
		replayTrace(t, ts.URL)
		nanos.Add(int64(24 * time.Hour))
		c.ExpireSessions()
		return c.QualityTotal(), c.Stats(), tally.snapshot()
	}

	// Distributed arm: each shard is its own server + follower
	// maintainer; the model and ranking cross an HTTP snapshot hop and
	// the crash-safe install gate before serving starts.
	runDistributed := func(shards int) (quality.Snapshot, server.Stats, map[gradedKey]int) {
		pubM := trainedPublisher(t, base)
		pub := maintain.NewPublisher(pubM, maintain.PublisherConfig{})
		pubTS := httptest.NewServer(pub)
		defer pubTS.Close()

		var nanos atomic.Int64
		tally := &gradedTally{}
		srvs := make([]*server.Server, shards)
		backends := make([]string, shards)
		for i := range srvs {
			srv := server.New(testStore(), server.Config{
				Clock:        func() time.Time { return base.Add(time.Duration(nanos.Load())) },
				OnHintEvent:  tally.record,
				TrustedPeers: []string{"127.0.0.1", "::1"},
			})
			var sm *maintain.Maintainer
			sm, err := maintain.New(maintain.Config{
				Factory: distributionFactory,
				OnPublish: func(p markov.Predictor) {
					srv.SetPredictor(p)
					if r := sm.Ranking(); r != nil {
						srv.SetGrader(r)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			fol, err := maintain.NewFollower(maintain.FollowerConfig{
				URL:     pubTS.URL,
				Install: sm.InstallSnapshot,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Synchronous install: the shard must be model-complete
			// before traffic arrives, like a booted follower daemon.
			if err := fol.Poll(context.Background()); err != nil {
				t.Fatal(err)
			}
			if fol.Version() == 0 {
				t.Fatal("follower installed nothing")
			}
			srvs[i] = srv
			shardTS := httptest.NewServer(srv)
			defer shardTS.Close()
			backends[i] = shardTS.URL
		}

		rt, err := New(Config{Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		rts := httptest.NewServer(rt)
		defer rts.Close()
		replayTrace(t, rts.URL)

		nanos.Add(int64(24 * time.Hour))
		var q quality.Snapshot
		var st server.Stats
		for _, srv := range srvs {
			srv.ExpireSessions()
		}
		for _, srv := range srvs {
			q = q.Add(srv.QualityTotal())
			st = st.Add(srv.Stats())
		}
		return q, st, tally.snapshot()
	}

	wantQual, wantStats, wantEvents := runInProcess(2)
	// The trace must exercise every lifecycle stage, and the grades on
	// those events must be nonzero — an all-zero grade distribution is
	// exactly what a ranking-less remote shard produces, and would let
	// this test pass vacuously.
	stages := map[server.HintEventType]bool{}
	graded := false
	for k := range wantEvents {
		stages[k.Type] = true
		if k.Grade > 0 {
			graded = true
		}
	}
	if !stages[server.HintIssued] || !stages[server.HintHit] || !stages[server.HintWasted] {
		t.Fatalf("trace too weak: events = %v", wantEvents)
	}
	if !graded {
		t.Fatal("no event carries a nonzero popularity grade; the grade assertion would be vacuous")
	}

	for _, n := range []int{1, 2, 4} {
		gotQual, gotStats, gotEvents := runDistributed(n)
		if !equalTallies(gotEvents, wantEvents) {
			t.Errorf("%d processes: graded lifecycle events = %v, in-process cluster = %v",
				n, gotEvents, wantEvents)
		}
		if gotQual != wantQual {
			t.Errorf("%d processes: quality = %+v, in-process cluster = %+v", n, gotQual, wantQual)
		}
		if gotStats.HintsIssued != wantStats.HintsIssued ||
			gotStats.HintFetches != wantStats.HintFetches ||
			gotStats.HintHits != wantStats.HintHits ||
			gotStats.DemandRequests != wantStats.DemandRequests ||
			gotStats.HintReportsUnmatched != wantStats.HintReportsUnmatched {
			t.Errorf("%d processes: stats = %+v, in-process cluster = %+v", n, gotStats, wantStats)
		}
	}
}
