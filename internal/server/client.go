package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"pbppm/internal/cache"
	"pbppm/internal/markov"
	"pbppm/internal/quality"
)

// ClientStats is a snapshot of client-side counters.
type ClientStats struct {
	Requests      int64
	CacheHits     int64
	PrefetchHits  int64
	Prefetched    int64
	PrefetchError int64
	// ReportsDropped counts pending hit reports discarded because the
	// batch hit its cap (a flapping server kept requeueing them).
	ReportsDropped int64
}

// HitRatio is total hits over requests.
func (s ClientStats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits+s.PrefetchHits) / float64(s.Requests)
}

// Client is a prefetching Web client: it keeps a browser cache, sends
// its identity with every request, and fetches the server's prefetch
// hints into the cache in the background.
type Client struct {
	id         string
	base       string
	http       *http.Client
	maxSize    int64
	maxPending int
	syncPref   bool

	mu    sync.Mutex
	cache cache.Policy
	stats ClientStats
	// pending batches local hit outcomes for the server's live scorer;
	// the batch rides on the next request (or an explicit Flush).
	pending []ReportEntry
	// wg tracks in-flight background prefetches so tests and shutdown
	// can drain them.
	wg sync.WaitGroup
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// ID identifies this client to the server; required.
	ID string
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// CacheBytes sizes the browser cache; zero selects the paper's 1 MB.
	CacheBytes int64
	// MaxPrefetchBytes skips hints whose body exceeds this; zero
	// selects 30 KB.
	MaxPrefetchBytes int64
	// HTTPClient overrides the transport; nil selects
	// http.DefaultClient.
	HTTPClient *http.Client
	// Policy selects the cache replacement policy; nil selects a 1 MB
	// LRU (or CacheBytes if set).
	Policy cache.Policy
	// SynchronousPrefetch fetches hints inline, in hint order, before
	// Get returns, instead of in background goroutines. Deterministic
	// replays (the live-vs-offline equivalence test) need it; serving
	// real users does not.
	SynchronousPrefetch bool
	// MaxPendingReports caps the batched hit reports held for the next
	// delivery; zero selects DefaultMaxPendingReports. Requeue-on-error
	// puts undelivered batches back, so without a cap a flapping server
	// would grow the batch without bound — over the cap the oldest
	// entries are dropped and counted in ClientStats.ReportsDropped.
	MaxPendingReports int
}

// DefaultMaxPendingReports bounds the pending report batch: 256 entries
// is hours of browsing for one client, and a dropped report only costs
// the server one scored hit, not correctness.
const DefaultMaxPendingReports = 256

// NewClient builds a prefetching client. It returns an error on a
// missing ID or base URL.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("server: client needs an ID")
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("server: client needs a BaseURL")
	}
	capacity := cfg.CacheBytes
	if capacity == 0 {
		capacity = cache.DefaultBrowserCapacity
	}
	pol := cfg.Policy
	if pol == nil {
		pol = cache.NewLRU(capacity)
	}
	maxSize := cfg.MaxPrefetchBytes
	if maxSize == 0 {
		maxSize = 30 * 1024
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	maxPending := cfg.MaxPendingReports
	if maxPending <= 0 {
		maxPending = DefaultMaxPendingReports
	}
	return &Client{
		id:         cfg.ID,
		base:       cfg.BaseURL,
		http:       hc,
		maxSize:    maxSize,
		maxPending: maxPending,
		syncPref:   cfg.SynchronousPrefetch,
		cache:      pol,
	}, nil
}

// Get retrieves url (a server path like "/news.html"), serving from
// the browser cache when possible and following prefetch hints
// otherwise. It returns the body source: "cache", "prefetch", or
// "network".
func (c *Client) Get(url string) (source string, err error) {
	c.mu.Lock()
	c.stats.Requests++
	if ok, prefetched := c.cache.Get(url); ok {
		if prefetched {
			c.stats.PrefetchHits++
			c.cache.MarkDemand(url)
			c.pending = append(c.pending, ReportEntry{URL: url, Outcome: quality.PrefetchHit})
			c.trimPendingLocked()
			c.mu.Unlock()
			return "prefetch", nil
		}
		c.stats.CacheHits++
		c.pending = append(c.pending, ReportEntry{URL: url, Outcome: quality.CacheHit})
		c.trimPendingLocked()
		c.mu.Unlock()
		return "cache", nil
	}
	c.mu.Unlock()

	size, hints, err := c.fetch(url, false)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.cache.Put(url, size, false)
	c.mu.Unlock()

	if c.syncPref {
		for _, h := range hints {
			c.prefetch(h.URL)
		}
		return "network", nil
	}
	for _, h := range hints {
		h := h
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.prefetch(h.URL)
		}()
	}
	return "network", nil
}

// prefetch pulls one hinted document into the cache.
func (c *Client) prefetch(url string) {
	c.mu.Lock()
	if c.cache.Contains(url) {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	size, _, err := c.fetch(url, true)
	if err != nil {
		c.mu.Lock()
		c.stats.PrefetchError++
		c.mu.Unlock()
		return
	}
	if size > c.maxSize {
		return
	}
	c.mu.Lock()
	if !c.cache.Contains(url) {
		c.cache.Put(url, size, true)
		c.stats.Prefetched++
	}
	c.mu.Unlock()
}

// errorBodyDrain bounds how much of a non-200 response body fetch reads
// before closing it. Draining a short error page to EOF lets the
// transport reuse the keep-alive connection; a longer body is cut off
// and costs the connection instead of the read.
const errorBodyDrain = 4 << 10

// fetch performs one HTTP GET against the server and returns the body
// size and the response's prefetch hints. The body is counted while it
// is drained, never buffered: the cache only needs its size. A read
// error (a body shorter than its declared length, a cut connection)
// fails the fetch, so nothing is cached from it.
func (c *Client) fetch(url string, isPrefetch bool) (size int64, hints []markov.Prediction, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+url, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("server: building request for %s: %w", url, err)
	}
	req.Header.Set(HeaderClientID, c.id)
	if isPrefetch {
		req.Header.Set(HeaderPrefetchFetch, "1")
	}
	reports := c.takeReports()
	if len(reports) > 0 {
		req.Header.Set(HeaderPrefetchReport, FormatReport(reports))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.requeueReports(reports)
		return 0, nil, fmt.Errorf("server: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.CopyN(io.Discard, resp.Body, errorBodyDrain) //nolint:errcheck // the status is the error
		return 0, nil, fmt.Errorf("server: fetching %s: status %s", url, resp.Status)
	}
	size, err = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("server: reading %s: %w", url, err)
	}
	return size, ParseHints(resp.Header.Get(HeaderPrefetch)), nil
}

// takeReports detaches the pending report batch.
func (c *Client) takeReports() []ReportEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	reports := c.pending
	c.pending = nil
	return reports
}

// requeueReports puts an undelivered batch back at the head of the
// queue (transport failure: the server never saw it). The requeued
// batch counts against the pending cap like any other entries, so a
// server that keeps failing cannot grow the batch without bound.
func (c *Client) requeueReports(reports []ReportEntry) {
	if len(reports) == 0 {
		return
	}
	c.mu.Lock()
	c.pending = append(reports, c.pending...)
	c.trimPendingLocked()
	c.mu.Unlock()
}

// trimPendingLocked drops the oldest pending reports over the cap and
// counts them. The head of the queue is oldest (requeued batches keep
// delivery order), so trimming the front keeps the freshest outcomes —
// the ones the server's rolling live scorer can still use. Callers hold
// c.mu.
func (c *Client) trimPendingLocked() {
	if over := len(c.pending) - c.maxPending; over > 0 {
		c.stats.ReportsDropped += int64(over)
		c.pending = append(c.pending[:0], c.pending[over:]...)
	}
}

// Flush delivers any pending hit reports on a report-only beacon (the
// server answers 204 without touching demand statistics). A client
// with nothing pending does not contact the server.
func (c *Client) Flush() error {
	reports := c.takeReports()
	if len(reports) == 0 {
		return nil
	}
	req, err := http.NewRequest(http.MethodGet, c.base+"/", nil)
	if err != nil {
		c.requeueReports(reports)
		return fmt.Errorf("server: building report beacon: %w", err)
	}
	req.Header.Set(HeaderClientID, c.id)
	req.Header.Set(HeaderPrefetchReport, FormatReport(reports))
	req.Header.Set(HeaderPrefetchReportOnly, "1")
	resp, err := c.http.Do(req)
	if err != nil {
		c.requeueReports(reports)
		return fmt.Errorf("server: sending report beacon: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // 204 carries no body
	resp.Body.Close()
	return nil
}

// Wait drains in-flight background prefetches; tests call it before
// asserting on cache contents.
func (c *Client) Wait() { c.wg.Wait() }

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
