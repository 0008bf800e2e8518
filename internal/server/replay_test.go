package server

import (
	"net/http/httptest"
	"sort"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/sim"
	"pbppm/internal/tracegen"
)

// TestReplayWorkloadOverHTTP is the end-to-end integration test: a
// synthetic workload is replayed through the real HTTP server and
// cooperating clients, and prefetching must lift the aggregate hit
// ratio well above the no-hint baseline — the paper's claim, exercised
// over an actual network stack instead of the simulator.
func TestReplayWorkloadOverHTTP(t *testing.T) {
	p := tracegen.NASA()
	p.Days = 3
	p.SessionsPerDay = 250
	p.Pages = 150
	p.Browsers = 60
	p.Crawlers = 0
	p.ProxyShare = 0

	site, err := tracegen.BuildSite(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.GenerateOn(site, p)
	if err != nil {
		t.Fatal(err)
	}
	sessions := session.Sessionize(tr, session.Config{})

	// Train PB-PPM on the first two days.
	cut := tr.Epoch.AddDate(0, 0, 2)
	var train, test []session.Session
	for _, s := range sessions {
		if s.Start().Before(cut) {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	if len(test) < 50 {
		t.Fatalf("only %d test sessions", len(test))
	}
	rank := rankOf(train)
	model := core.New(rank, core.Config{RelProbCutoff: 0.01})
	sim.Train(model, train)

	store := MapStore{}
	for _, pg := range site.Pages {
		store[pg.URL] = Document{URL: pg.URL, Body: make([]byte, pg.Size)}
	}

	run := func(pred *core.Model) (hitRatio float64) {
		var cfg Config
		if pred != nil {
			cfg.Predictor = pred
		}
		srv := New(store, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()

		clients := map[string]*Client{}
		var requests, hits int64
		// Replay sessions in start order; within a session clicks are
		// sequential, matching real browsing.
		ordered := append([]session.Session(nil), test...)
		sort.SliceStable(ordered, func(i, j int) bool {
			return ordered[i].Start().Before(ordered[j].Start())
		})
		for _, s := range ordered {
			cl := clients[s.Client]
			if cl == nil {
				var err error
				cl, err = NewClient(ClientConfig{ID: s.Client, BaseURL: ts.URL})
				if err != nil {
					t.Fatal(err)
				}
				clients[s.Client] = cl
			}
			for _, v := range s.Views {
				src, err := cl.Get(v.URL)
				if err != nil {
					t.Fatalf("GET %s: %v", v.URL, err)
				}
				requests++
				if src == "cache" || src == "prefetch" {
					hits++
				}
				cl.Wait() // deterministic: hints land before the next click
			}
		}
		return float64(hits) / float64(requests)
	}

	baseline := run(nil)
	prefetched := run(model)
	t.Logf("HTTP replay: baseline hit %.3f, PB-PPM hint hit %.3f", baseline, prefetched)
	if prefetched <= baseline+0.05 {
		t.Errorf("hint prefetching lifted hit ratio only %.3f -> %.3f",
			baseline, prefetched)
	}
}

func rankOf(sessions []session.Session) *popularity.Ranking {
	rank := popularity.NewRanking()
	for _, s := range sessions {
		for _, u := range s.URLs() {
			rank.Observe(u, 1)
		}
	}
	return rank
}
