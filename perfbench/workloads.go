package main

import (
	"fmt"
	"sync"
	"time"

	"pbppm/internal/server"
	"pbppm/internal/tracegen"
)

// workload is one traffic mix against one serving stack.
type workload struct {
	name    string
	why     string
	profile func() tracegen.Profile
	stack   stackConfig
	run     func(b *bench) error
}

var workloads = []workload{
	{
		name:    "browse",
		why:     "long warm NASA sessions served in process with synchronous prefetch: predict and the server's session and hint stages are most of the work, and quality counts repeat exactly",
		profile: tracegen.NASA,
		stack:   stackConfig{shards: 1},
		run:     runBrowse,
	},
	{
		name:    "flash-crowd",
		why:     "never-seen UCB-CS visitors making 1-3 clicks through a 2-shard cluster over loopback HTTP: the hop, the ring and session creation dominate, predict sees short contexts",
		profile: tracegen.UCBCS,
		stack:   stackConfig{shards: 2, loopback: true},
		run:     runFlashCrowd,
	},
	{
		name:    "churn",
		why:     "NASA sessions over loopback HTTP while ended sessions feed delta merges and rebuilds: training, freezing and publishing compete with serving for the CPUs and the GC",
		profile: tracegen.NASA,
		stack:   stackConfig{shards: 1, loopback: true, sessionIdle: churnIdle},
		run:     runChurn,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Workload sizes and rates. Open-loop rates are page views per second,
// fixed at about a quarter of the closed-loop peak on a 2-CPU host: at
// half the peak the generator, clients and server, sharing the CPUs,
// saturate them and latency grows without bound.
const (
	browseClients = 64
	browseViews   = 256

	flashRate      = 1500
	flashActive    = 32
	flashMaxClicks = 3

	churnRate    = 1200
	churnActive  = 64
	churnMaxLen  = 20
	churnIdle    = 300 * time.Millisecond
	expireEvery  = 100 * time.Millisecond
	deltaEvery   = 500 * time.Millisecond
	rebuildEvery = time.Second

	// slice is the closed-loop throughput sampling period.
	slice = 500 * time.Millisecond
)

// fingerprint is everything a browse pass must reproduce exactly.
type fingerprint struct {
	quality qualityPhase
	stats   server.Stats
}

// qualityPhase is the phase the paper's quality metrics are read from.
type qualityPhase struct {
	client                 server.ClientStats
	demandBytes, prefBytes int64
	hints                  [4]int64
}

func (b *bench) bytes() (demand, prefetch int64) {
	return b.st.check.demandBytes.Load(), b.st.check.prefBytes.Load()
}

func subStats(a, b server.Stats) server.Stats {
	return server.Stats{
		DemandRequests:       a.DemandRequests - b.DemandRequests,
		PrefetchRequests:     a.PrefetchRequests - b.PrefetchRequests,
		NotFound:             a.NotFound - b.NotFound,
		HintsIssued:          a.HintsIssued - b.HintsIssued,
		SessionsStarted:      a.SessionsStarted - b.SessionsStarted,
		SessionsExpired:      a.SessionsExpired - b.SessionsExpired,
		HintFetches:          a.HintFetches - b.HintFetches,
		HintHits:             a.HintHits - b.HintHits,
		HintReportsUnmatched: a.HintReportsUnmatched - b.HintReportsUnmatched,
	}
}

func subHints(a, b [4]int64) [4]int64 {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// runBrowse replays one seeded plan in passes until the run time is
// spent (at least two). Each pass uses fresh clients and ends with
// their reports flushed and their server sessions closed, so every
// pass must reproduce the first one's counts exactly.
func runBrowse(b *bench) error {
	plan := browsePlan(b.sm.nav, b.seed, browseClients, browseViews)
	deadline := time.Now().Add(b.seconds)
	var first fingerprint
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		traced := b.tr != nil && k%2 == 0
		if b.tr != nil {
			b.tr.on.Store(traced)
		}
		v, rps, fp, err := b.browsePass(k, plan)
		if err != nil {
			return err
		}
		b.views.count(v)
		if traced {
			b.tracedPeak = append(b.tracedPeak, rps)
		} else {
			b.peak = append(b.peak, rps)
			b.lat.merge(&v.lat)
			b.lag.merge(&v.lag)
		}
		if k == 0 {
			first, b.quality = fp, fp.quality
			continue
		}
		if fp != first {
			b.fail(fmt.Sprintf("browse pass %d differs from pass 0: %+v vs %+v", k, fp, first))
		}
	}
	if b.tr != nil {
		b.tr.on.Store(true)
	}
	b.modelBytes = arenaBytes(b.sm.maint.Predictor())
	if q := first.quality; q.hints[0] == 0 || q.client.PrefetchHits == 0 {
		b.fail(fmt.Sprintf("browse is vacuous: %d hints issued, %d prefetch hits", q.hints[0], q.client.PrefetchHits))
	}
	b.inflightMax = int64(b.nproc)
	return nil
}

// browsePass runs the plan once with fresh clients, nproc workers each
// owning every nproc-th client.
func (b *bench) browsePass(k int, plan [][]string) (*views, float64, fingerprint, error) {
	clients := make([]*server.Client, len(plan))
	for i := range clients {
		clients[i] = b.st.newClient(fmt.Sprintf("p%d-c%d", k, i), true)
	}
	s0, h0 := b.st.stats(), b.st.hints.snapshot()
	d0, p0 := b.bytes()
	per := make([]*views, b.nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range per {
		per[w] = &views{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, last := per[w], time.Now()
			for step := 0; step < browseViews; step++ {
				for i := w; i < len(plan); i += b.nproc {
					t := time.Now()
					src, err := clients[i].Get(plan[i][step])
					end := time.Now()
					v.record(src, err, end.Sub(t), t.Sub(last), true)
					last = end
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rps := float64(served(b.st.stats())-served(s0)) / elapsed.Seconds()
	d1, p1 := b.bytes()
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			return nil, 0, fingerprint{}, fmt.Errorf("flushing reports: %w", err)
		}
	}
	b.st.srv.FlushSessions()
	all := &views{}
	for _, v := range per {
		all.merge(v)
	}
	fp := fingerprint{
		quality: qualityPhase{
			client:      clientTotals(clients),
			demandBytes: d1 - d0,
			prefBytes:   p1 - p0,
			hints:       subHints(b.st.hints.snapshot(), h0),
		},
		stats: subStats(b.st.stats(), s0),
	}
	return all, rps, fp, nil
}

// runFlashCrowd sends never-seen visitors at a fixed rate, then runs
// the closed-loop peak phase.
func runFlashCrowd(b *bench) error {
	nav := b.sm.nav
	b.openPhase(newStream(newVisits(nav, b.seed, flashMaxClicks, 0), b.seed+1, flashActive), flashRate)
	b.closedPhase(func(w int) *visits { return newVisits(nav, b.seed+int64(100+w), flashMaxClicks, 0) })
	return nil
}

// runChurn runs the open-loop and closed-loop phases while the
// maintainer observes ended sessions, delta-merges, and rebuilds.
// Rebuild times are taken from the open-loop phase, where the rate and
// so the window's growth are fixed.
func runChurn(b *bench) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		b.expireLoop(stop)
	}()
	go func() {
		defer wg.Done()
		b.maintainLoop(stop)
	}()
	nav := b.sm.nav
	b.openPhase(newStream(newVisits(nav, b.seed, 0, churnMaxLen), b.seed+1, churnActive), churnRate)
	b.closedPhase(func(w int) *visits { return newVisits(nav, b.seed+int64(100+w), 0, churnMaxLen) })
	close(stop)
	wg.Wait()
	return nil
}

// openPhase runs the open loop for three fifths of the run and records
// it as the latency and quality phase, and the served model's size at
// its end.
func (b *bench) openPhase(str *stream, rate float64) {
	h0 := b.st.hints.snapshot()
	d0, p0 := b.bytes()
	b.timeRebuilds.Store(true)
	res := b.openLoop(str, rate, b.seconds*3/5)
	b.timeRebuilds.Store(false)
	b.modelBytes = arenaBytes(b.sm.maint.Predictor())
	d1, p1 := b.bytes()
	b.views.count(&res.views)
	b.lat.merge(&res.lat)
	b.lag.merge(&res.lag)
	b.inflightMax = res.inflightMax
	b.quality = qualityPhase{
		client:      res.clients,
		demandBytes: d1 - d0,
		prefBytes:   p1 - p0,
		hints:       subHints(b.st.hints.snapshot(), h0),
	}
	if res.capHit {
		b.genLimited = append(b.genLimited, fmt.Sprintf("%d page views in flight", maxInflight))
	}
	if lag := b.lag.quantile(0.99); lag > maxLagP99 {
		b.genLimited = append(b.genLimited, fmt.Sprintf("schedule lag p99 %v over %v", lag, maxLagP99))
	}
}

// closedPhase runs the closed loop for the other two fifths.
func (b *bench) closedPhase(src func(int) *visits) {
	res := b.closedLoop(src, b.seconds*2/5, slice)
	b.views.count(&res.views)
	b.peak = append(b.peak, res.rps...)
	b.tracedPeak = append(b.tracedPeak, res.tracedRPS...)
}

// expireLoop closes idle client sessions, as prefetchd does on its own
// ticker.
func (b *bench) expireLoop(stop chan struct{}) {
	t := time.NewTicker(expireEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b.st.srv.ExpireSessions()
		}
	}
}

// maintainLoop delta-merges and rebuilds on their own schedules, one
// at a time, as prefetchd's incremental maintenance loop does.
func (b *bench) maintainLoop(stop chan struct{}) {
	delta := time.NewTicker(deltaEvery)
	defer delta.Stop()
	rebuild := time.NewTicker(rebuildEvery)
	defer rebuild.Stop()
	m := b.sm.maint
	for {
		select {
		case <-stop:
			return
		case <-rebuild.C:
			d := b.maintCall("maintain.rebuild", func() { m.Rebuild(time.Now()) })
			b.rebuildCount++
			if b.timeRebuilds.Load() {
				b.rebuilds = append(b.rebuilds, d)
			}
		case <-delta.C:
			b.deltas = append(b.deltas, b.maintCall("maintain.delta_merge", func() { m.DeltaMerge(time.Now()) }))
		}
	}
}

// maintCall times one maintainer call, through the tracer when tracing.
func (b *bench) maintCall(name string, fn func()) time.Duration {
	if b.tr != nil {
		return b.tr.maintCall(name, fn)
	}
	start := time.Now()
	fn()
	return time.Since(start)
}
