package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
)

// doGet drives ServeHTTP directly (no network) for stress and bench.
func doGet(h http.Handler, url, client string, prefetch bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if client != "" {
		req.Header.Set(HeaderClientID, client)
	}
	if prefetch {
		req.Header.Set(HeaderPrefetchFetch, "1")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestStressServeRebuildExpire hammers the server from many clients
// while models are swapped and sessions expire concurrently — the
// scenario that used to race on the shared tree's usage marks and
// convoy on the global mutex. Run with -race.
func TestStressServeRebuildExpire(t *testing.T) {
	var clock atomic.Int64
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	clock.Store(0)
	srv := New(testStore(), Config{
		Predictor:   trainedPB(),
		SessionIdle: 10 * time.Millisecond,
		Clock:       func() time.Time { return base.Add(time.Duration(clock.Load())) },
		OnSessionEnd: func(client string, urls []string, last time.Time) {
			_ = len(urls) // exercise the callback path
		},
	})

	const (
		workers  = 8
		requests = 300
	)
	urls := []string{"/home", "/news", "/news/today", "/sports"}
	stop := make(chan struct{})

	// Demand and prefetch traffic from many clients, including shared
	// client IDs so the same context shard entry is hit concurrently.
	var traffic sync.WaitGroup
	for g := 0; g < workers; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; i < requests; i++ {
				client := fmt.Sprintf("client%d", (g*requests+i)%5)
				rec := doGet(srv, urls[i%len(urls)], client, i%7 == 0)
				if rec.Code != http.StatusOK {
					t.Errorf("status = %d", rec.Code)
					return
				}
				clock.Add(int64(time.Millisecond))
			}
		}(g)
	}
	// Concurrent model swaps (the maintenance loop's job) and session
	// expiry, running until the traffic drains.
	var background sync.WaitGroup
	background.Add(2)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.SetPredictor(trainedPB())
			runtime.Gosched()
		}
	}()
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.ExpireSessions()
			runtime.Gosched()
		}
	}()

	traffic.Wait()
	close(stop)
	background.Wait()

	st := srv.Stats()
	if st.DemandRequests+st.PrefetchRequests != workers*requests {
		t.Errorf("requests accounted = %d, want %d",
			st.DemandRequests+st.PrefetchRequests, workers*requests)
	}
}

// TestStressSameClientContext hits one client ID from many goroutines:
// every request lands on the same context shard entry and the same
// published model.
func TestStressSameClientContext(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	urls := []string{"/home", "/news", "/news/today"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				doGet(srv, urls[i%len(urls)], "hotclient", false)
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().DemandRequests; got != 8*400 {
		t.Errorf("DemandRequests = %d, want %d", got, 8*400)
	}
	if ctx := srv.contextURLs("hotclient"); len(ctx) != 8*400 {
		t.Errorf("context length = %d, want %d", len(ctx), 8*400)
	}
}

// BenchmarkServerServeHTTPParallel measures demand-request throughput
// on the lock-free read path, serving the frozen model prefetchd
// publishes (so sessions take the streaming match); run with
// -cpu 1,2,4,8 to see scaling with GOMAXPROCS.
func BenchmarkServerServeHTTPParallel(b *testing.B) {
	srv := New(benchStore(), Config{Predictor: benchModel().Freeze()})
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := fmt.Sprintf("bench-client-%d", id.Add(1))
		urls := []string{"/p0", "/p1", "/p2", "/p3", "/p4", "/p5", "/p6", "/p7"}
		req := httptest.NewRequest(http.MethodGet, "/p0", nil)
		req.Header.Set(HeaderClientID, client)
		i := 0
		for pb.Next() {
			req.URL.Path = urls[i%len(urls)]
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			i++
		}
	})
}

// BenchmarkServerServeHTTPParallelObs is the same workload with a live
// metrics registry and a sampling-off tracer, to measure the cost of
// instrumentation relative to BenchmarkServerServeHTTPParallel.
func BenchmarkServerServeHTTPParallelObs(b *testing.B) {
	reg := obs.NewRegistry()
	srv := New(benchStore(), Config{
		Predictor: benchModel().Freeze(),
		Obs:       reg,
		Tracer:    obs.NewTracer(reg, 0),
	})
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := fmt.Sprintf("bench-client-%d", id.Add(1))
		urls := []string{"/p0", "/p1", "/p2", "/p3", "/p4", "/p5", "/p6", "/p7"}
		req := httptest.NewRequest(http.MethodGet, "/p0", nil)
		req.Header.Set(HeaderClientID, client)
		i := 0
		for pb.Next() {
			req.URL.Path = urls[i%len(urls)]
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			i++
		}
	})
}

// benchStore builds a 64-document site for the parallel benchmark.
func benchStore() MapStore {
	store := MapStore{}
	for i := 0; i < 64; i++ {
		url := fmt.Sprintf("/p%d", i)
		store[url] = Document{URL: url, Body: make([]byte, 2048)}
	}
	return store
}

// benchModel trains PB-PPM on a ring walk over the benchmark site.
func benchModel() *core.Model {
	grades := popularity.FixedGrades{}
	var seq []string
	for i := 0; i < 8; i++ {
		url := fmt.Sprintf("/p%d", i)
		grades[url] = 3
		seq = append(seq, url)
	}
	m := core.New(grades, core.Config{})
	for i := 0; i < 10; i++ {
		m.TrainSequence(seq)
	}
	return m
}

// BenchmarkServerServeHTTPParallelDeepContext is the parallel demand
// benchmark with sessions long enough that every request's context
// fills the predictContextTail-URL tail. With the frozen model each
// request still advances the match by one URL, so its cost should
// track BenchmarkServerServeHTTPParallel's.
func BenchmarkServerServeHTTPParallelDeepContext(b *testing.B) {
	srv := New(benchStore(), Config{Predictor: deepBenchModel().Freeze()})
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := fmt.Sprintf("deep-client-%d", id.Add(1))
		urls := make([]string, 32)
		for i := range urls {
			urls[i] = fmt.Sprintf("/p%d", i%64)
		}
		req := httptest.NewRequest(http.MethodGet, "/p0", nil)
		req.Header.Set(HeaderClientID, client)
		i := 0
		// Warm the session past the context tail so every measured
		// request predicts from a full-depth context.
		for ; i < predictContextTail; i++ {
			req.URL.Path = urls[i%len(urls)]
			srv.ServeHTTP(httptest.NewRecorder(), req)
		}
		for pb.Next() {
			req.URL.Path = urls[i%len(urls)]
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			i++
		}
	})
}

// deepBenchModel trains PB-PPM on long overlapping walks so deep
// contexts keep matching mid-branch instead of falling off the tree.
func deepBenchModel() *core.Model {
	grades := popularity.FixedGrades{}
	var seq []string
	for i := 0; i < 32; i++ {
		url := fmt.Sprintf("/p%d", i)
		grades[url] = 3
		seq = append(seq, url)
	}
	m := core.New(grades, core.Config{})
	for rot := 0; rot < 8; rot++ {
		s := append(append([]string{}, seq[rot:]...), seq[:rot]...)
		for i := 0; i < 5; i++ {
			m.TrainSequence(s)
		}
	}
	return m
}
