package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pbppm/internal/server"
)

// Load loops. A closed loop keeps nproc workers busy, each sending its
// next page view when the previous one returns; an open loop sends page
// views on a fixed schedule whatever the server does, and times each
// from when it was due.

// views accumulates the page-view outcomes of one phase.
type views struct {
	mu        sync.Mutex
	lat       dist // page views that reached the server
	lag       dist // how late the generator sent each page view
	attempted int64
	failed    int64
	firstErr  error
}

// record counts one page view. Only page views that reached the server
// add latency and lag samples, a failed one as an unbounded latency so
// it misses any limit; timed is false for warm-up page views, which
// count as attempted but add no samples.
func (v *views) record(src string, err error, lat, lag time.Duration, timed bool) {
	v.mu.Lock()
	v.attempted++
	switch {
	case err != nil:
		v.failed++
		if v.firstErr == nil {
			v.firstErr = err
		}
		if timed {
			v.lat.add(math.MaxInt64)
		}
	case src == "network" && timed:
		v.lat.add(lat)
		v.lag.add(lag)
	}
	v.mu.Unlock()
}

// count folds o's attempted and failed counts into v.
func (v *views) count(o *views) {
	v.attempted += o.attempted
	v.failed += o.failed
	if v.firstErr == nil {
		v.firstErr = o.firstErr
	}
}

// merge folds o's counts and samples into v.
func (v *views) merge(o *views) {
	v.count(o)
	v.lat.merge(&o.lat)
	v.lag.merge(&o.lag)
}

// addClient adds c's counters to t.
func addClient(t *server.ClientStats, c *server.Client) {
	s := c.Stats()
	t.Requests += s.Requests
	t.CacheHits += s.CacheHits
	t.PrefetchHits += s.PrefetchHits
	t.Prefetched += s.Prefetched
	t.PrefetchError += s.PrefetchError
	t.ReportsDropped += s.ReportsDropped
}

// clientTotals sums client counters.
func clientTotals(cs []*server.Client) server.ClientStats {
	var t server.ClientStats
	for _, c := range cs {
		addClient(&t, c)
	}
	return t
}

// served is the server-side request count: demand plus prefetch.
func served(s server.Stats) int64 { return s.DemandRequests + s.PrefetchRequests }

// openResult is one open-loop phase.
type openResult struct {
	views
	clients     server.ClientStats // guarded by views.mu
	inflightMax int64
	capHit      bool
}

// maxInflight caps open-loop page views in flight. Reaching it means
// the server fell far behind the schedule; the phase is then
// generator-limited.
const maxInflight = 1024

// warmup is the start of each phase whose page views are sent but not
// timed: connections open and the heap settles into its steady state.
const warmup = 500 * time.Millisecond

// openLoop sends page views from str at rate per second for warmup
// plus dur, timing those after the warm-up. A visitor's click waits
// for its previous page view and the prefetches that page view
// triggered, as a reader finishes loading a page before following a
// link; the wait counts in the click's latency. The dispatcher runs on
// its own OS thread and sleeps with nanosleep, whose wake-up is tens
// of microseconds late where the runtime's timers can be a millisecond
// late; each page view is timed from its due time.
func (b *bench) openLoop(str *stream, rate float64, dur time.Duration) *openResult {
	type visitor struct {
		c    *server.Client
		prev chan struct{} // closed when the previous click finished
	}
	res := &openResult{}
	active := map[int]*visitor{}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	sem := make(chan struct{}, maxInflight)
	gap := time.Duration(float64(time.Second) / rate)
	warm, n := int(warmup/gap), int((warmup+dur)/gap)

	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		start := time.Now()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * gap)
			if d := time.Until(due); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake only adds lag, which is measured
			}
			a := str.next()
			v := active[a.visitor.id]
			if v == nil {
				v = &visitor{c: b.st.newClient(fmt.Sprintf("v%d", a.visitor.id), false)}
				active[a.visitor.id] = v
			}
			last := a.click == len(a.visitor.urls)-1
			if last {
				delete(active, a.visitor.id)
			}
			select {
			case sem <- struct{}{}:
			default:
				res.capHit = true
				sem <- struct{}{}
			}
			lag := time.Since(due)
			if in := inflight.Add(1); in > res.inflightMax {
				res.inflightMax = in
			}
			prev, next := v.prev, make(chan struct{})
			v.prev = next
			wg.Add(1)
			go func(c *server.Client, url string, due time.Time, lag time.Duration, timed bool) {
				defer wg.Done()
				if prev != nil {
					<-prev
				}
				c.Wait()
				src, err := c.Get(url)
				res.record(src, err, time.Since(due), lag, timed)
				close(next)
				inflight.Add(-1)
				<-sem
				if last {
					c.Wait()
					res.mu.Lock()
					addClient(&res.clients, c)
					res.mu.Unlock()
				}
			}(v.c, a.visitor.urls[a.click], due, lag, i >= warm)
		}
	}()
	<-done
	wg.Wait()
	// Visitors the phase ended in the middle of.
	for _, v := range active {
		v.c.Wait()
		addClient(&res.clients, v.c)
	}
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	views
	// rps and tracedRPS are served requests per second of each slice,
	// split by whether tracing was on during it.
	rps, tracedRPS []float64
}

// closedLoop runs nproc workers, each drawing visitors from its own
// source and making their clicks back to back, for warmup plus dur,
// timing those after the warm-up. Throughput is sampled per slice; in
// a traced run slices alternate traced and untraced so the difference
// is the tracing overhead.
func (b *bench) closedLoop(src func(worker int) *visits, dur, slice time.Duration) *closedResult {
	res := &closedResult{}
	var stop, warming atomic.Bool
	var wg sync.WaitGroup
	warming.Store(true)
	perWorker := make([]*views, b.nproc)
	for w := 0; w < b.nproc; w++ {
		perWorker[w] = &views{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vs := src(w)
			v := perWorker[w]
			last := time.Now()
			// Recent visitors whose prefetches may still be running;
			// older ones are waited for and dropped.
			var recent []*server.Client
			defer func() {
				for _, c := range recent {
					c.Wait()
				}
			}()
			for !stop.Load() {
				vis := vs.draw()
				c := b.st.newClient(fmt.Sprintf("w%d-v%d", w, vis.id), false)
				if recent = append(recent, c); len(recent) > 64 {
					recent[0].Wait()
					recent = recent[1:]
				}
				for _, url := range vis.urls {
					start := time.Now()
					from, err := c.Get(url)
					end := time.Now()
					v.record(from, err, end.Sub(start), start.Sub(last), !warming.Load())
					last = end
				}
			}
		}(w)
	}
	time.Sleep(warmup)
	warming.Store(false)
	for i := 0; i < int(dur/slice); i++ {
		traced := b.tr != nil && i%2 == 0
		if b.tr != nil {
			b.tr.on.Store(traced)
		}
		before, t0 := served(b.st.stats()), time.Now()
		time.Sleep(slice)
		rps := float64(served(b.st.stats())-before) / time.Since(t0).Seconds()
		if traced {
			res.tracedRPS = append(res.tracedRPS, rps)
		} else {
			res.rps = append(res.rps, rps)
		}
	}
	stop.Store(true)
	wg.Wait()
	if b.tr != nil {
		b.tr.on.Store(true)
	}
	for w := range perWorker {
		res.merge(perWorker[w])
	}
	return res
}

// setTimerSlack asks Linux to wake the calling thread's sleeps within
// a microsecond of their deadline instead of the default 50us slack.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) //nolint:errcheck // best effort: default slack only adds measured lag
}
