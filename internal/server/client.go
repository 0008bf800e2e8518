package server

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
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
	base string
	// baseURL is base as http.NewRequest parses it, parsed once; joinable
	// reports whether a plain path can be appended to its Path to get
	// the URL of base+path (see request).
	baseURL  url.URL
	joinable bool
	// idValue and flagValue are the X-Client-Id value and the "1" of
	// the flag headers, shared read-only by every request this client
	// builds.
	idValue, flagValue []string

	http     *http.Client
	syncPref bool

	mu    sync.Mutex
	cache *cache.LRU
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
	// CacheBytes sizes the browser's LRU cache; zero selects the
	// paper's 1 MB.
	CacheBytes int64
	// HTTPClient overrides the transport; nil selects
	// http.DefaultClient.
	HTTPClient *http.Client
	// SynchronousPrefetch fetches hints inline, in hint order, before
	// Get returns, instead of in background goroutines. Deterministic
	// replays (the live-vs-offline equivalence test) need it; serving
	// real users does not.
	SynchronousPrefetch bool
}

// DefaultMaxPendingReports bounds the batched hit reports a client holds
// for the next delivery: 256 entries is hours of browsing for one
// client, and a dropped report only costs the server one scored hit,
// not correctness. Requeue-on-error puts undelivered batches back, so
// without a cap a flapping server would grow the batch without bound;
// over the cap the oldest entries are dropped and counted in
// ClientStats.ReportsDropped.
const DefaultMaxPendingReports = 256

// NewClient builds a prefetching client. It returns an error on a
// missing ID or a missing or unparsable base URL.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("server: client needs an ID")
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("server: client needs a BaseURL")
	}
	base, err := http.NewRequest(http.MethodGet, cfg.BaseURL, nil)
	if err != nil {
		return nil, fmt.Errorf("server: client BaseURL: %w", err)
	}
	capacity := cfg.CacheBytes
	if capacity == 0 {
		capacity = cache.DefaultBrowserCapacity
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	// A base with a query or fragment would swallow an appended path,
	// and one with a raw (escaped) path or no authority needs the full
	// parse to rejoin; requests to such a base always take the full parse.
	joinable := !strings.ContainsAny(cfg.BaseURL, "?#") &&
		base.URL.Host != "" && base.URL.Opaque == "" && base.URL.RawPath == ""
	values := [2]string{cfg.ID, "1"}
	return &Client{
		base:      cfg.BaseURL,
		baseURL:   *base.URL,
		joinable:  joinable,
		idValue:   values[0:1:1],
		flagValue: values[1:2:2],
		http:      hc,
		syncPref:  cfg.SynchronousPrefetch,
		cache:     cache.NewLRU(capacity),
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
	if size > maxHintBytes {
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

// clientRequest holds a built request and its URL in one allocation.
type clientRequest struct {
	req http.Request
	url url.URL
}

// request builds the GET for path (a server path like "/news.html"),
// carrying the client's identity: the request http.NewRequest builds
// for BaseURL+path, still sent through the configured http.Client so
// its redirect policy, Jar and Timeout apply. A plain path (see
// plainPath) is appended to the base URL parsed in NewClient; any
// other path — a query, a fragment, percent escapes, bytes a URL
// escapes — goes through http.NewRequest on the joined string.
func (c *Client) request(path string) (*http.Request, error) {
	var req *http.Request
	if c.joinable && plainPath(path) {
		cr := &clientRequest{url: c.baseURL}
		cr.url.Path += path
		cr.req = http.Request{
			Method:     http.MethodGet,
			URL:        &cr.url,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Host:       cr.url.Host,
		}
		req = &cr.req
	} else {
		var err error
		if req, err = http.NewRequest(http.MethodGet, c.base+path, nil); err != nil {
			return nil, err
		}
	}
	req.Header[HeaderClientID] = c.idValue
	return req, nil
}

// plainPath reports whether url.Parse keeps path exactly as written
// after a base URL: it starts with '/' and holds only alphanumerics and
// the marks and delimiters a URL path leaves unescaped, so it has no
// query, no fragment, no percent escape and nothing RawPath would keep.
func plainPath(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	for i := 0; i < len(path); i++ {
		switch c := path[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("-_.~$&+,/:;=@", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// fetch performs one HTTP GET against the server and returns the body
// size and the response's prefetch hints. The body is counted while it
// is drained, never buffered: the cache only needs its size. A read
// error (a body shorter than its declared length, a cut connection)
// fails the fetch, so nothing is cached from it.
func (c *Client) fetch(url string, isPrefetch bool) (size int64, hints []markov.Prediction, err error) {
	req, err := c.request(url)
	if err != nil {
		return 0, nil, fmt.Errorf("server: building request for %s: %w", url, err)
	}
	if isPrefetch {
		req.Header[HeaderPrefetchFetch] = c.flagValue
	}
	reports := c.takeReports()
	if len(reports) > 0 {
		req.Header[HeaderPrefetchReport] = []string{FormatReport(reports)}
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
	return size, ParseHints(headerValue(resp.Header, HeaderPrefetch)), nil
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
	if over := len(c.pending) - DefaultMaxPendingReports; over > 0 {
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
	req, err := c.request("/")
	if err != nil {
		c.requeueReports(reports)
		return fmt.Errorf("server: building report beacon: %w", err)
	}
	req.Header[HeaderPrefetchReport] = []string{FormatReport(reports)}
	req.Header[HeaderPrefetchReportOnly] = c.flagValue
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
