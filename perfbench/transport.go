package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"pbppm/internal/server"
)

// inproc is an http.RoundTripper that calls the handler directly on the
// caller's goroutine: no socket, no serialization, so the serving
// stack's own work dominates the round trip.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &recorder{header: http.Header{}}
	t.h.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return &http.Response{
		StatusCode:    rec.code,
		Status:        strconv.Itoa(rec.code) + " " + http.StatusText(rec.code),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body)),
		ContentLength: int64(len(rec.body)),
		Request:       req,
	}, nil
}

// recorder is a minimal http.ResponseWriter. A single Write is kept by
// reference — the server writes the store's immutable document bytes —
// so the in-memory hop copies no body.
type recorder struct {
	header http.Header
	code   int
	body   []byte
	copied bool
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	switch {
	case r.body == nil:
		r.body = p
	case !r.copied:
		r.body = append(append([]byte(nil), r.body...), p...)
		r.copied = true
	default:
		r.body = append(r.body, p...)
	}
	return len(p), nil
}

// checker is the benchmark's own accounting in front of the transport: it
// counts every request it sends by kind, counts body bytes, and checks
// every response — status 200 and exactly the body length the store
// holds (report-only beacons: status 204).
type checker struct {
	next  http.RoundTripper
	store server.MapStore

	demand, prefetch       atomic.Int64
	demandBytes, prefBytes atomic.Int64
	bad                    atomic.Int64

	mu       sync.Mutex
	firstBad error
}

func newChecker(store server.MapStore, next http.RoundTripper) *checker {
	return &checker{next: next, store: store}
}

func (c *checker) fail(err error) {
	c.bad.Add(1)
	c.mu.Lock()
	if c.firstBad == nil {
		c.firstBad = err
	}
	c.mu.Unlock()
}

// err returns the first failed check, or nil.
func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstBad
}

func (c *checker) RoundTrip(req *http.Request) (*http.Response, error) {
	beacon := req.Header.Get(server.HeaderPrefetchReportOnly) != ""
	pref := req.Header.Get(server.HeaderPrefetchFetch) != ""
	switch {
	case pref:
		c.prefetch.Add(1)
	case !beacon:
		c.demand.Add(1)
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", req.URL.Path, err))
		return nil, err
	}
	if beacon {
		if resp.StatusCode != http.StatusNoContent {
			c.fail(fmt.Errorf("report beacon: status %d, want 204", resp.StatusCode))
		}
		return resp, nil
	}
	doc, ok := c.store[req.URL.Path]
	if resp.StatusCode != http.StatusOK || !ok {
		c.fail(fmt.Errorf("%s: status %d, want 200", req.URL.Path, resp.StatusCode))
		return resp, nil
	}
	counter := &c.demandBytes
	if pref {
		counter = &c.prefBytes
	}
	resp.Body = &lengthCheck{rc: resp.Body, want: int64(len(doc.Body)), c: c, path: req.URL.Path, counter: counter}
	return resp, nil
}

// lengthCheck counts a response body as it is read and, at EOF, checks
// it against the stored document's length.
type lengthCheck struct {
	rc      io.ReadCloser
	want, n int64
	c       *checker
	path    string
	counter *atomic.Int64
	done    bool
}

func (l *lengthCheck) Read(p []byte) (int, error) {
	n, err := l.rc.Read(p)
	l.n += int64(n)
	if errors.Is(err, io.EOF) && !l.done {
		l.done = true
		l.counter.Add(l.n)
		if l.n != l.want {
			l.c.fail(fmt.Errorf("%s: body %d bytes, store holds %d", l.path, l.n, l.want))
		}
	}
	return n, err
}

func (l *lengthCheck) Close() error {
	if !l.done {
		l.c.fail(fmt.Errorf("%s: body closed after %d of %d bytes", l.path, l.n, l.want))
		l.done = true
	}
	return l.rc.Close()
}
