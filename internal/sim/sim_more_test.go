package sim

import (
	"math/rand"
	"testing"
	"time"

	"pbppm/internal/cache"
	"pbppm/internal/core"
	"pbppm/internal/latency"
	"pbppm/internal/lrs"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/session"
)

// randomSessions builds a reproducible batch of sessions over a small
// URL universe with a planted hot path.
func randomSessions(seed int64, n int, startSec int) []session.Session {
	rng := rand.New(rand.NewSource(seed))
	urls := []string{"/a", "/b", "/c", "/d", "/e", "/f"}
	var out []session.Session
	for i := 0; i < n; i++ {
		client := "c" + string(rune('0'+rng.Intn(8)))
		s := session.Session{Client: client}
		var seq []string
		if rng.Float64() < 0.6 {
			seq = []string{"/a", "/b", "/c"} // hot path
		} else {
			m := rng.Intn(4) + 1
			seq = make([]string, m)
			for j := range seq {
				seq[j] = urls[rng.Intn(len(urls))]
			}
		}
		base := startSec + i*3600
		for j, u := range seq {
			s.Views = append(s.Views, session.PageView{
				URL: u, Time: at(base + j*15), Bytes: int64(1000 + 100*j),
			})
		}
		out = append(out, s)
	}
	return out
}

// TestInvariantsAcrossModels replays the same workload through all
// three real models plus the baseline and checks cross-cutting
// accounting invariants.
func TestInvariantsAcrossModels(t *testing.T) {
	train := randomSessions(1, 200, 0)
	test := randomSessions(2, 80, 1_000_000)
	sizeTable := BuildSizeTable(train, test)
	rank := popularity.NewRanking()
	for _, s := range train {
		for _, u := range s.URLs() {
			rank.Observe(u, 1)
		}
	}

	preds := []markov.Predictor{
		nil,
		ppm.New(ppm.Config{}),
		ppm.New(ppm.Config{Height: 3}),
		lrs.New(lrs.Config{}),
		core.New(rank, core.Config{RelProbCutoff: 0.01}),
	}
	var requests int64 = -1
	for _, p := range preds {
		if p != nil {
			Train(p, train)
		}
		res := Run(test, Options{Predictor: p, Sizes: sizeTable, Grades: rank})
		name := "none"
		if p != nil {
			name = p.Name()
		}
		if requests == -1 {
			requests = res.Requests
		}
		if res.Requests != requests {
			t.Errorf("%s: request count %d differs from baseline %d", name, res.Requests, requests)
		}
		if res.Hits() > res.Requests {
			t.Errorf("%s: more hits than requests", name)
		}
		if res.PrefetchHitsPopular > res.PrefetchHits {
			t.Errorf("%s: popular prefetch hits exceed prefetch hits", name)
		}
		if res.TransferredBytes < res.UsefulBytes-res.PrefetchedBytes {
			t.Errorf("%s: byte accounting inconsistent: transferred %d useful %d prefetched %d",
				name, res.TransferredBytes, res.UsefulBytes, res.PrefetchedBytes)
		}
		if res.PrefetchedBytes > res.TransferredBytes {
			t.Errorf("%s: prefetched bytes exceed transferred", name)
		}
		if res.TotalLatency < 0 {
			t.Errorf("%s: negative latency", name)
		}
		if p == nil && (res.PrefetchedDocs != 0 || res.PrefetchHits != 0) {
			t.Errorf("baseline run prefetched: %+v", res)
		}
	}
}

// TestSmallerCacheFewerHits: shrinking the browser cache relative to
// the documents can only reduce (or keep) the hit count on a replay
// without prefetching. The 1 MB cache holds every document of the
// workload; scaled 512 times, they fill it as the originals fill a
// 2 KB cache.
func TestSmallerCacheFewerHits(t *testing.T) {
	test := randomSessions(3, 150, 0)
	sizeTable := BuildSizeTable(test)
	scaled := make(map[string]int64, len(sizeTable))
	for u, size := range sizeTable {
		scaled[u] = size * (cache.DefaultBrowserCapacity / 2048)
	}
	big := Run(test, Options{Sizes: sizeTable})
	small := Run(test, Options{Sizes: scaled})
	if small.Hits() > big.Hits() {
		t.Errorf("smaller cache produced more hits: %d > %d", small.Hits(), big.Hits())
	}
	if big.Hits() == 0 {
		t.Error("workload produced no cache hits at all")
	}
}

// TestCustomLatencyPathScalesLatency: doubling the link costs doubles
// the modeled total latency of a cache-less replay.
func TestCustomLatencyPathScalesLatency(t *testing.T) {
	test := randomSessions(4, 40, 0)
	sizeTable := BuildSizeTable(test)
	p1 := latency.Path{
		ClientServer: latency.Model{Connect: 100 * time.Millisecond, TransferRate: time.Microsecond},
	}
	p2 := latency.Path{
		ClientServer: latency.Model{Connect: 200 * time.Millisecond, TransferRate: 2 * time.Microsecond},
	}
	// Documents larger than the 1 MB browser cache force every request
	// to the server.
	for u := range sizeTable {
		sizeTable[u] += cache.DefaultBrowserCapacity
	}
	r1 := Run(test, Options{Sizes: sizeTable, Path: p1})
	r2 := Run(test, Options{Sizes: sizeTable, Path: p2})
	ratio := float64(r2.TotalLatency) / float64(r1.TotalLatency)
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("latency ratio = %v, want 2.0", ratio)
	}
}

// TestOptimizerInvokedByTrain: Train must call the model's Optimize.
func TestOptimizerInvokedByTrain(t *testing.T) {
	grades := popularity.FixedGrades{"/a": 3}
	m := core.New(grades, core.Config{DropSingletons: true})
	train := []session.Session{
		mkSession("c1", 0, sizes, "/a", "/b"),
		mkSession("c2", 100, sizes, "/x", "/y"), // singletons
		mkSession("c3", 200, sizes, "/a", "/b"),
	}
	Train(m, train)
	if m.Tree().Match([]string{"/x"}) != markov.Root {
		t.Error("Train did not run the space optimization")
	}
	if m.Tree().Match([]string{"/a", "/b"}) == markov.Root {
		t.Error("optimization removed repeated branch")
	}
}

// TestRunIsDeterministic: identical inputs yield identical results.
func TestRunIsDeterministic(t *testing.T) {
	train := randomSessions(5, 100, 0)
	test := randomSessions(6, 50, 500_000)
	sizeTable := BuildSizeTable(train, test)
	mk := func() runDigest {
		m := ppm.New(ppm.Config{})
		Train(m, train)
		res := Run(test, Options{Predictor: m, Sizes: sizeTable})
		return runDigest{res.Hits(), res.TransferredBytes, res.PrefetchedDocs, int64(res.TotalLatency)}
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("nondeterministic run: %+v vs %+v", a, b)
	}
}

type runDigest struct {
	hits, transferred, prefetched, latency int64
}

// TestProxySharedAcrossClients: a document fetched by one client is a
// proxy cache hit for the next client, but not a browser hit.
func TestProxySharedAcrossClients(t *testing.T) {
	test := []session.Session{
		mkSession("alice", 0, sizes, "/a"),
		mkSession("bob", 100, sizes, "/a"),
		mkSession("carol", 200, sizes, "/a"),
	}
	res := Run(test, Options{Sizes: sizes, UseProxy: true})
	if res.ProxyCacheHits != 2 {
		t.Errorf("ProxyCacheHits = %d, want 2", res.ProxyCacheHits)
	}
	if res.BrowserHits != 0 {
		t.Errorf("BrowserHits = %d, want 0 (distinct clients)", res.BrowserHits)
	}
	// Without the proxy the same workload has no hits at all.
	direct := Run(test, Options{Sizes: sizes})
	if direct.Hits() != 0 {
		t.Errorf("direct hits = %d, want 0", direct.Hits())
	}
}

// TestGDSFPolicyRuns replays a workload with the GDSF cache policy and
// checks it behaves like a cache (hits happen, accounting holds).
func TestGDSFPolicyRuns(t *testing.T) {
	test := randomSessions(7, 150, 0)
	sizeTable := BuildSizeTable(test)
	lru := Run(test, Options{Sizes: sizeTable})
	gdsf := Run(test, Options{Sizes: sizeTable, CachePolicy: PolicyGDSF})
	if gdsf.Hits() == 0 {
		t.Error("GDSF produced no hits")
	}
	if gdsf.Requests != lru.Requests {
		t.Error("request counts differ across policies")
	}
	if PolicyLRU.String() != "lru" || PolicyGDSF.String() != "gdsf" {
		t.Error("policy names")
	}
}
