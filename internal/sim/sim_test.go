package sim

import (
	"testing"
	"time"

	"pbppm/internal/latency"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/session"
)

var epoch = time.Date(1995, 7, 1, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }

// mkSession builds a session with 10s click spacing and fixed sizes.
func mkSession(client string, startSec int, sizes map[string]int64, urls ...string) session.Session {
	s := session.Session{Client: client}
	for i, u := range urls {
		s.Views = append(s.Views, session.PageView{
			URL: u, Time: at(startSec + i*10), Bytes: sizes[u],
		})
	}
	return s
}

// stub is a scripted predictor: it predicts nexts[current URL].
type stub struct {
	nexts map[string][]markov.Prediction
	nodes int
}

func (s *stub) Name() string               { return "stub" }
func (s *stub) TrainSequence(seq []string) {}
func (s *stub) NodeCount() int             { return s.nodes }
func (s *stub) Predict(ctx []string) []markov.Prediction {
	if len(ctx) == 0 {
		return nil
	}
	return s.nexts[ctx[len(ctx)-1]]
}

var sizes = map[string]int64{"/a": 1000, "/b": 2000, "/c": 3000, "/big": 50_000}

func TestBaselineCaching(t *testing.T) {
	test := []session.Session{
		mkSession("c1", 0, sizes, "/a", "/b", "/a"),
	}
	res := Run(test, Options{Sizes: sizes})
	if res.Model != "none" {
		t.Errorf("Model = %q", res.Model)
	}
	if res.Requests != 3 {
		t.Errorf("Requests = %d", res.Requests)
	}
	// /a misses, /b misses, /a hits browser cache.
	if res.CacheHits != 1 || res.PrefetchHits != 0 {
		t.Errorf("hits = %+v", res)
	}
	if res.TransferredBytes != 3000 || res.UsefulBytes != 3000 {
		t.Errorf("bytes = transferred %d useful %d", res.TransferredBytes, res.UsefulBytes)
	}
	if res.TrafficIncrease() != 0 {
		t.Errorf("baseline traffic increase = %v", res.TrafficIncrease())
	}
}

func TestPrefetchHitFlow(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/b", Probability: 0.9, Order: 1}},
	}, nodes: 7}
	test := []session.Session{mkSession("c1", 0, sizes, "/a", "/b")}
	res := Run(test, Options{Predictor: pred, Sizes: sizes})

	if res.PrefetchHits != 1 || res.CacheHits != 0 {
		t.Fatalf("hits = %+v", res)
	}
	if res.HitRatio() != 0.5 {
		t.Errorf("HitRatio = %v", res.HitRatio())
	}
	// Transferred: /a miss (1000) + /b prefetch (2000); both useful.
	if res.TransferredBytes != 3000 || res.UsefulBytes != 3000 {
		t.Errorf("bytes = %+v", res)
	}
	if res.TrafficIncrease() != 0 {
		t.Errorf("traffic increase = %v", res.TrafficIncrease())
	}
	if res.Nodes != 7 {
		t.Errorf("Nodes = %d", res.Nodes)
	}

	// Latency: only /a pays a fetch; /b is a local prefetched copy.
	baseline := Run(test, Options{Sizes: sizes})
	if red := res.LatencyReductionVs(baseline); red <= 0.3 {
		t.Errorf("latency reduction = %v, want > 0.3", red)
	}
}

func TestWastedPrefetch(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/c", Probability: 0.9, Order: 1}},
	}}
	test := []session.Session{mkSession("c1", 0, sizes, "/a", "/b")}
	res := Run(test, Options{Predictor: pred, Sizes: sizes})
	if res.PrefetchHits != 0 {
		t.Errorf("PrefetchHits = %d", res.PrefetchHits)
	}
	// /c (3000) transferred but never used; useful = /a + /b = 3000.
	if res.TransferredBytes != 6000 || res.UsefulBytes != 3000 {
		t.Errorf("bytes = transferred %d useful %d", res.TransferredBytes, res.UsefulBytes)
	}
	if got := res.TrafficIncrease(); got != 1.0 {
		t.Errorf("traffic increase = %v, want 1.0", got)
	}
}

func TestSizeThresholdBlocksLargePrefetch(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/big", Probability: 0.9, Order: 1}},
	}}
	test := []session.Session{mkSession("c1", 0, sizes, "/a", "/big")}
	res := Run(test, Options{Predictor: pred, Sizes: sizes, MaxPrefetchBytes: 10 * 1024})
	if res.PrefetchedDocs != 0 {
		t.Errorf("oversize document prefetched")
	}
	// Raising the threshold allows it.
	res = Run(test, Options{Predictor: pred, Sizes: sizes, MaxPrefetchBytes: 100 * 1024})
	if res.PrefetchedDocs != 1 || res.PrefetchHits != 1 {
		t.Errorf("prefetch with big threshold = %+v", res)
	}
}

func TestUnknownSizeNotPrefetched(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/nowhere", Probability: 0.9, Order: 1}},
	}}
	test := []session.Session{mkSession("c1", 0, sizes, "/a")}
	res := Run(test, Options{Predictor: pred, Sizes: sizes})
	if res.PrefetchedDocs != 0 {
		t.Error("prefetched a document with unknown size")
	}
}

func TestAlreadyCachedNotRePrefetched(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/b", Probability: 0.9, Order: 1}},
	}}
	test := []session.Session{mkSession("c1", 0, sizes, "/a", "/b", "/a", "/b")}
	res := Run(test, Options{Predictor: pred, Sizes: sizes})
	// /b prefetched once only; the second visit to /a finds /b cached.
	if res.PrefetchedDocs != 1 {
		t.Errorf("PrefetchedDocs = %d, want 1", res.PrefetchedDocs)
	}
	// Hits: /b (prefetch), /a (cache), /b (cache after MarkDemand).
	if res.PrefetchHits != 1 || res.CacheHits != 2 {
		t.Errorf("hits = prefetch %d cache %d", res.PrefetchHits, res.CacheHits)
	}
}

func TestPopularShareMetric(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/b", Probability: 0.9, Order: 1}},
		"/b": {{URL: "/c", Probability: 0.9, Order: 1}},
	}}
	grades := popularity.FixedGrades{"/b": 3, "/c": 0}
	test := []session.Session{mkSession("c1", 0, sizes, "/a", "/b", "/c")}
	// PredictOnHitToo lets the /b prefetch hit still trigger the /c
	// push, exercising both grade branches of the metric in one run.
	res := Run(test, Options{Predictor: pred, Sizes: sizes, Grades: grades, PredictOnHitToo: true})
	if res.PrefetchHits != 2 || res.PrefetchHitsPopular != 1 {
		t.Fatalf("prefetch hits = %d popular %d", res.PrefetchHits, res.PrefetchHitsPopular)
	}
	if got := res.PopularShareOfPrefetchHits(); got != 0.5 {
		t.Errorf("popular share = %v", got)
	}
}

func TestProxyMode(t *testing.T) {
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/b", Probability: 0.9, Order: 1}},
	}}
	// Two clients behind the proxy: c1 triggers the prefetch of /b into
	// the proxy; c2 later demands /b and hits the proxy's prefetched copy.
	test := []session.Session{
		mkSession("c1", 0, sizes, "/a"),
		mkSession("c2", 100, sizes, "/b"),
		mkSession("c2", 200, sizes, "/b"), // now in c2's browser cache
	}
	res := Run(test, Options{Predictor: pred, Sizes: sizes, UseProxy: true})
	if res.ProxyPrefetchHits != 1 {
		t.Errorf("ProxyPrefetchHits = %d, want 1", res.ProxyPrefetchHits)
	}
	if res.BrowserHits != 1 {
		t.Errorf("BrowserHits = %d, want 1 (second /b visit)", res.BrowserHits)
	}
	if res.HitRatio() < 0.66 || res.HitRatio() > 0.67 {
		t.Errorf("HitRatio = %v, want 2/3", res.HitRatio())
	}
}

func TestProxyLatencyCheaperThanDirect(t *testing.T) {
	test := []session.Session{
		mkSession("c1", 0, sizes, "/a"),
		mkSession("c2", 100, sizes, "/a"), // proxy cache hit for c2
	}
	withProxy := Run(test, Options{Sizes: sizes, UseProxy: true})
	direct := Run(test, Options{Sizes: sizes})
	if withProxy.TotalLatency >= direct.TotalLatency {
		t.Errorf("proxy latency %v not below direct %v",
			withProxy.TotalLatency, direct.TotalLatency)
	}
	if withProxy.ProxyCacheHits != 1 {
		t.Errorf("ProxyCacheHits = %d", withProxy.ProxyCacheHits)
	}
}

func TestTrainHelperWithRealModel(t *testing.T) {
	m := ppm.New(ppm.Config{})
	train := []session.Session{
		mkSession("c1", 0, sizes, "/a", "/b"),
		mkSession("c2", 100, sizes, "/a", "/b"),
	}
	nodes := Train(m, train)
	if nodes != m.NodeCount() || nodes == 0 {
		t.Errorf("Train returned %d nodes, model has %d", nodes, m.NodeCount())
	}
	test := []session.Session{mkSession("c3", 1000, sizes, "/a", "/b")}
	res := Run(test, Options{Predictor: m, Sizes: sizes})
	if res.PrefetchHits != 1 {
		t.Errorf("end-to-end prefetch hits = %d, want 1", res.PrefetchHits)
	}
}

func TestOnlineTraining(t *testing.T) {
	m := ppm.New(ppm.Config{})
	// No offline training at all; online mode learns from the first
	// session and prefetches during the second.
	test := []session.Session{
		mkSession("c1", 0, sizes, "/a", "/b"),
		mkSession("c1", 5000, sizes, "/a", "/b"),
		mkSession("c2", 10000, sizes, "/a", "/b"),
	}
	res := Run(test, Options{Predictor: m, Sizes: sizes, OnlineTraining: true})
	if res.PrefetchHits == 0 {
		t.Error("online training produced no prefetch hits")
	}
	off := ppm.New(ppm.Config{})
	resOff := Run(test, Options{Predictor: off, Sizes: sizes})
	if resOff.PrefetchHits != 0 {
		t.Errorf("untrained offline model produced hits: %+v", resOff)
	}
}

// TestOnlineTrainingCadence: under online training the replay predicts
// from a snapshot re-frozen once per simulated hour, the way a
// maintainer publishes. A session that ended earlier in the same hour
// does not inform predictions yet, and does once the hour turns.
func TestOnlineTrainingCadence(t *testing.T) {
	sessions := []session.Session{
		mkSession("c1", 0, sizes, "/a", "/b"),
		mkSession("c2", 20*60, sizes, "/a", "/b"),
		mkSession("c3", 70*60, sizes, "/a", "/b"),
	}
	run := func(test []session.Session) int64 {
		return Run(test, Options{Predictor: ppm.New(ppm.Config{}), Sizes: sizes, OnlineTraining: true}).PrefetchHits
	}
	if hits := run(sessions[:2]); hits != 0 {
		t.Errorf("the +20 min session got %d prefetch hits from a session that ended in the same hour, want 0", hits)
	}
	if hits := run(sessions); hits != 1 {
		t.Errorf("prefetch hits = %d, want 1: the +70 min session predicts from the sessions of the hour before", hits)
	}
}

func TestURLSequencesAndSizeTable(t *testing.T) {
	s := mkSession("c", 0, sizes, "/a", "/b")
	s.Views[0].Embedded = []session.Embedded{{URL: "/i.gif", Bytes: 500}}
	seqs := URLSequences([]session.Session{s})
	if len(seqs) != 1 || len(seqs[0]) != 2 || seqs[0][0] != "/a" {
		t.Errorf("URLSequences = %v", seqs)
	}
	table := BuildSizeTable([]session.Session{s})
	if table["/a"] != 1500 {
		t.Errorf("size(/a) = %d, want 1500 (page+embedded)", table["/a"])
	}
	if table["/b"] != 2000 {
		t.Errorf("size(/b) = %d", table["/b"])
	}
}

func TestCompare(t *testing.T) {
	train := []session.Session{
		mkSession("c1", 0, sizes, "/a", "/b"),
		mkSession("c2", 100, sizes, "/a", "/b"),
	}
	test := []session.Session{mkSession("c3", 10000, sizes, "/a", "/b")}
	results := Compare(train, test, []NamedRun{
		{Options: Options{Predictor: ppm.New(ppm.Config{})}},
		{Name: "PPM-custom", Options: Options{Predictor: ppm.New(ppm.Config{Height: 3})}},
	})
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 (baseline + 2)", len(results))
	}
	if results[0].Model != "none" {
		t.Errorf("first result = %q, want baseline", results[0].Model)
	}
	if results[1].Model != "PPM" || results[2].Model != "PPM-custom" {
		t.Errorf("models = %q, %q", results[1].Model, results[2].Model)
	}
	if results[1].HitRatio() <= results[0].HitRatio() {
		t.Errorf("prefetching did not beat baseline: %v vs %v",
			results[1].HitRatio(), results[0].HitRatio())
	}
}

func TestFitPathFromTrace(t *testing.T) {
	table := map[string]int64{}
	for i := 0; i < 100; i++ {
		table[urlN(i)] = int64(500 + i*997)
	}
	p, err := FitPathFromTrace(table, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := latency.DefaultPath().ClientServer
	if p.ClientServer.Connect < truth.Connect/2 || p.ClientServer.Connect > truth.Connect*2 {
		t.Errorf("fitted connect %v far from truth %v", p.ClientServer.Connect, truth.Connect)
	}
	if p.ProxyHit(1000) >= p.DirectFetch(1000) {
		t.Error("fitted proxy hit not cheaper than direct fetch")
	}
	if _, err := FitPathFromTrace(map[string]int64{"/one": 5}, 1); err == nil {
		t.Error("FitPathFromTrace with one sample succeeded")
	}
}

func urlN(i int) string {
	return "/u" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestSessionsInterleaveByTime(t *testing.T) {
	// c2's request at t=5 lands between c1's clicks; the prefetch
	// triggered by c1 at t=0 must already be in c1's cache regardless.
	pred := &stub{nexts: map[string][]markov.Prediction{
		"/a": {{URL: "/b", Probability: 0.9, Order: 1}},
	}}
	s1 := mkSession("c1", 0, sizes, "/a", "/b")
	s2 := mkSession("c2", 5, sizes, "/c")
	res := Run([]session.Session{s1, s2}, Options{Predictor: pred, Sizes: sizes})
	if res.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d", res.PrefetchHits)
	}
	if res.Requests != 3 {
		t.Errorf("Requests = %d", res.Requests)
	}
}
