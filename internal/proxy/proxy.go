// Package proxy implements a prefetching HTTP proxy cache — the
// deployable counterpart of the paper's §5 server↔proxy evaluation. The
// proxy sits between browsers and an origin server, holds a large
// cache (the paper's 16 GB disk cache, LRU by default), forwards the
// end client's identity so the origin can keep per-user prediction
// contexts, and absorbs the origin's X-Prefetch hints by pulling the
// hinted documents into its own cache ("Web servers regularly push
// their most popular documents to Web proxies").
package proxy

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"pbppm/internal/cache"
	"pbppm/internal/markov"
	"pbppm/internal/server"
)

// Config parameterizes the proxy.
type Config struct {
	// Origin is the upstream server base URL, e.g. "http://origin:8080";
	// required.
	Origin string
	// CacheBytes sizes the proxy cache; zero selects the paper's 16 GB.
	CacheBytes int64
	// Cache overrides the replacement policy; nil selects LRU.
	Cache cache.Policy
	// MaxPrefetchBytes skips hinted documents larger than this; zero
	// selects 30 KB.
	MaxPrefetchBytes int64
	// HTTPClient overrides the upstream transport; nil selects
	// http.DefaultClient.
	HTTPClient *http.Client
	// NoFollowHints stops the proxy absorbing the origin's hints into
	// its cache; the zero value follows them.
	NoFollowHints bool
	// ForwardHints passes the origin's X-Prefetch header through to the
	// downstream client, enabling two-level prefetching: the proxy
	// absorbs hints into its shared cache while browsers also prefetch
	// into their own.
	ForwardHints bool
}

// Stats is a snapshot of proxy counters.
type Stats struct {
	Requests      int64
	CacheHits     int64
	PrefetchHits  int64
	Misses        int64
	Prefetched    int64
	PrefetchError int64
	UpstreamError int64
}

// HitRatio is proxy hits over requests.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits+s.PrefetchHits) / float64(s.Requests)
}

// counters holds the live atomic counters behind Stats, so statistics
// never contend with (or require) the cache lock.
type counters struct {
	requests      atomic.Int64
	cacheHits     atomic.Int64
	prefetchHits  atomic.Int64
	misses        atomic.Int64
	prefetched    atomic.Int64
	prefetchError atomic.Int64
	upstreamError atomic.Int64
}

// Proxy is an http.Handler implementing the prefetching proxy.
type Proxy struct {
	cfg  Config
	http *http.Client

	mu     sync.Mutex
	cache  cache.Policy
	bodies map[string][]byte // cached document bodies
	stats  counters
	wg     sync.WaitGroup
}

// New builds a proxy. It returns an error on a missing origin.
func New(cfg Config) (*Proxy, error) {
	if cfg.Origin == "" {
		return nil, fmt.Errorf("proxy: missing origin URL")
	}
	pol := cfg.Cache
	if pol == nil {
		capacity := cfg.CacheBytes
		if capacity == 0 {
			capacity = cache.DefaultProxyCapacity
		}
		pol = cache.NewLRU(capacity)
	}
	if cfg.MaxPrefetchBytes == 0 {
		cfg.MaxPrefetchBytes = 30 * 1024
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Proxy{
		cfg:    cfg,
		http:   hc,
		cache:  pol,
		bodies: make(map[string][]byte),
	}, nil
}

// Stats returns a snapshot of the counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:      p.stats.requests.Load(),
		CacheHits:     p.stats.cacheHits.Load(),
		PrefetchHits:  p.stats.prefetchHits.Load(),
		Misses:        p.stats.misses.Load(),
		Prefetched:    p.stats.prefetched.Load(),
		PrefetchError: p.stats.prefetchError.Load(),
		UpstreamError: p.stats.upstreamError.Load(),
	}
}

// Wait drains in-flight background prefetches.
func (p *Proxy) Wait() { p.wg.Wait() }

// ServeHTTP serves from the proxy cache or relays to the origin.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	url := r.URL.Path

	p.stats.requests.Add(1)
	p.mu.Lock()
	if ok, prefetched := p.cache.Get(url); ok {
		body := p.bodies[url]
		if prefetched {
			p.stats.prefetchHits.Add(1)
			p.cache.MarkDemand(url)
		} else {
			p.stats.cacheHits.Add(1)
		}
		p.mu.Unlock()
		w.Header().Set("X-Proxy-Cache", "HIT")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body) //nolint:errcheck // client disconnects are fine
		return
	}
	p.stats.misses.Add(1)
	p.mu.Unlock()

	body, hints, err := p.fetch(url, r.Header.Get(server.HeaderClientID), false)
	if err != nil {
		p.stats.upstreamError.Add(1)
		http.Error(w, fmt.Sprintf("upstream: %v", err), http.StatusBadGateway)
		return
	}
	p.store(url, body, false)

	if p.cfg.ForwardHints && len(hints) > 0 {
		// Re-encode through FormatHints so URLs stay escaped and the
		// downstream client sees the origin's probabilities.
		w.Header().Set(server.HeaderPrefetch, server.FormatHints(hints))
	}
	if !p.cfg.NoFollowHints {
		for _, h := range hints {
			h := h
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.prefetch(h.URL)
			}()
		}
	}
	w.Header().Set("X-Proxy-Cache", "MISS")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) //nolint:errcheck
}

// prefetch pulls one hinted document into the proxy cache.
func (p *Proxy) prefetch(url string) {
	p.mu.Lock()
	if p.cache.Contains(url) {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()

	body, _, err := p.fetch(url, "", true)
	if err != nil {
		p.stats.prefetchError.Add(1)
		return
	}
	if int64(len(body)) > p.cfg.MaxPrefetchBytes {
		return
	}
	p.mu.Lock()
	if !p.cache.Contains(url) {
		p.storeLocked(url, body, true)
		p.stats.prefetched.Add(1)
	}
	p.mu.Unlock()
}

// store caches a document body.
func (p *Proxy) store(url string, body []byte, prefetched bool) {
	p.mu.Lock()
	p.storeLocked(url, body, prefetched)
	p.mu.Unlock()
}

// storeLocked requires p.mu held. Bodies evicted by the policy must be
// dropped from the body map too; Contains-based reconciliation after
// every insert keeps the two views consistent.
func (p *Proxy) storeLocked(url string, body []byte, prefetched bool) {
	p.cache.Put(url, int64(len(body)), prefetched)
	if p.cache.Contains(url) {
		p.bodies[url] = body
	}
	// Reconcile: drop bodies the policy evicted. The map is small
	// relative to cache churn at proxy scale; a full sweep per insert
	// would be O(n²) across a run, so sweep lazily only when the map
	// outgrows the cache's entry count.
	if len(p.bodies) > p.cache.Len() {
		for u := range p.bodies {
			if !p.cache.Contains(u) {
				delete(p.bodies, u)
			}
		}
	}
}

// fetch performs one GET against the origin.
func (p *Proxy) fetch(url, clientID string, isPrefetch bool) (body []byte, hints []markov.Prediction, err error) {
	req, err := http.NewRequest(http.MethodGet, p.cfg.Origin+url, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("proxy: building request for %s: %w", url, err)
	}
	if clientID != "" {
		req.Header.Set(server.HeaderClientID, clientID)
	}
	if isPrefetch {
		req.Header.Set(server.HeaderPrefetchFetch, "1")
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("proxy: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("proxy: fetching %s: status %s", url, resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("proxy: reading %s: %w", url, err)
	}
	return body, server.ParseHints(resp.Header.Get(server.HeaderPrefetch)), nil
}
