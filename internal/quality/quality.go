// Package quality implements the paper's §2.3 quality metrics —
// prefetch precision, hit ratio, and traffic increase — as an online
// scorer shared by the offline simulator (internal/sim replays feed
// one) and the live server (internal/server scores its hint lifecycle
// through one). Both producers report the same two primitive events:
//
//   - Demand(at, size, outcome): one demand page request, classified
//     as a miss (the bytes crossed the network), an ordinary cache
//     hit, or a prefetch hit (a previously prefetched copy served it);
//   - Prefetched(at, size): one document transferred by prefetching.
//
// and the formulas themselves live in internal/metrics.Result, so a
// live pbppm_live_precision gauge and a simulator report cell are by
// construction the same computation — the equivalence the live-scorer
// tests assert.
//
// A Scorer is cumulative-only by default (single atomic adds, cheap
// enough for the simulator's replay loop); NewWindowedScorer
// additionally maintains rolling counters so the same event stream
// answers "over the last five minutes" as well as "since start". Each
// event carries its time, which files it in the rolling windows; a
// cumulative-only scorer ignores it.
package quality

import (
	"sync/atomic"
	"time"

	"pbppm/internal/metrics"
	"pbppm/internal/obs"
)

// Outcome classifies how one demand request was served.
type Outcome int

const (
	// Miss: no cached copy; the document was transferred on demand.
	Miss Outcome = iota
	// CacheHit: an ordinarily cached copy served the request.
	CacheHit
	// PrefetchHit: a prefetched copy served the request — the
	// prediction came true.
	PrefetchHit
)

// String names the outcome for logs and event streams.
func (o Outcome) String() string {
	switch o {
	case CacheHit:
		return "cache_hit"
	case PrefetchHit:
		return "prefetch_hit"
	default:
		return "miss"
	}
}

// Snapshot is a consistent-enough view of a scorer's counters (each
// field is read atomically; cross-field skew under concurrent updates
// is bounded by one in-flight event). The ratio methods delegate to
// metrics.Result so online and offline reports share one formula
// implementation.
type Snapshot struct {
	Requests         int64
	CacheHits        int64
	PrefetchHits     int64
	PrefetchedDocs   int64
	TransferredBytes int64
	UsefulBytes      int64
	PrefetchedBytes  int64
}

// Result views the snapshot as a metrics.Result, the simulator's
// accumulator type, which owns the §2.3 formulas.
func (s Snapshot) Result() metrics.Result {
	return metrics.Result{
		Requests:         s.Requests,
		CacheHits:        s.CacheHits,
		PrefetchHits:     s.PrefetchHits,
		PrefetchedDocs:   s.PrefetchedDocs,
		TransferredBytes: s.TransferredBytes,
		UsefulBytes:      s.UsefulBytes,
		PrefetchedBytes:  s.PrefetchedBytes,
	}
}

// HitRatio is (cache hits + prefetch hits) / requests.
func (s Snapshot) HitRatio() float64 { return s.Result().HitRatio() }

// Precision is prefetch hits / prefetched documents.
func (s Snapshot) Precision() float64 { return s.Result().PrefetchPrecision() }

// TrafficIncrease is transferred/useful bytes minus one.
func (s Snapshot) TrafficIncrease() float64 { return s.Result().TrafficIncrease() }

// Add returns the element-wise sum of two snapshots, for aggregating
// per-model scorers into a serving-wide view.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Requests:         s.Requests + o.Requests,
		CacheHits:        s.CacheHits + o.CacheHits,
		PrefetchHits:     s.PrefetchHits + o.PrefetchHits,
		PrefetchedDocs:   s.PrefetchedDocs + o.PrefetchedDocs,
		TransferredBytes: s.TransferredBytes + o.TransferredBytes,
		UsefulBytes:      s.UsefulBytes + o.UsefulBytes,
		PrefetchedBytes:  s.PrefetchedBytes + o.PrefetchedBytes,
	}
}

// rollingSet mirrors the cumulative counters over a rolling window.
type rollingSet struct {
	requests       *obs.RollingCounter
	cacheHits      *obs.RollingCounter
	prefetchHits   *obs.RollingCounter
	prefetchedDocs *obs.RollingCounter
	transferred    *obs.RollingCounter
	useful         *obs.RollingCounter
	prefetchedB    *obs.RollingCounter
}

func newRollingSet(w obs.Window) *rollingSet {
	return &rollingSet{
		requests:       obs.NewRollingCounter(w),
		cacheHits:      obs.NewRollingCounter(w),
		prefetchHits:   obs.NewRollingCounter(w),
		prefetchedDocs: obs.NewRollingCounter(w),
		transferred:    obs.NewRollingCounter(w),
		useful:         obs.NewRollingCounter(w),
		prefetchedB:    obs.NewRollingCounter(w),
	}
}

// Scorer accumulates quality events. All methods are safe for
// unsynchronized concurrent use; every update is a handful of atomic
// adds (plus the rolling mirrors when windowed).
type Scorer struct {
	requests       atomic.Int64
	cacheHits      atomic.Int64
	prefetchHits   atomic.Int64
	prefetchedDocs atomic.Int64
	transferred    atomic.Int64
	useful         atomic.Int64
	prefetchedB    atomic.Int64

	roll *rollingSet // nil for cumulative-only scorers
}

// NewScorer returns a cumulative-only scorer — the simulator's mode:
// no windows, minimal per-event cost.
func NewScorer() *Scorer { return &Scorer{} }

// NewWindowedScorer returns a scorer that additionally answers
// Window(span) queries for any span up to w's Span — the live server's
// mode.
func NewWindowedScorer(w obs.Window) *Scorer {
	return &Scorer{roll: newRollingSet(w)}
}

// Demand records one demand page request of the given transfer size,
// made at time at and classified by how it was served. Following the
// paper's accounting (and the simulator's): a miss transfers size
// bytes, all useful; a prefetch hit makes the earlier prefetched
// transfer useful retroactively (size bytes are credited to useful,
// none transferred now); an ordinary cache hit moves no bytes.
func (s *Scorer) Demand(at time.Time, size int64, o Outcome) {
	s.requests.Add(1)
	if s.roll != nil {
		s.roll.requests.Inc(at)
	}
	switch o {
	case CacheHit:
		s.cacheHits.Add(1)
		if s.roll != nil {
			s.roll.cacheHits.Inc(at)
		}
	case PrefetchHit:
		s.prefetchHits.Add(1)
		s.useful.Add(size)
		if s.roll != nil {
			s.roll.prefetchHits.Inc(at)
			s.roll.useful.Add(at, size)
		}
	default: // Miss
		s.transferred.Add(size)
		s.useful.Add(size)
		if s.roll != nil {
			s.roll.transferred.Add(at, size)
			s.roll.useful.Add(at, size)
		}
	}
}

// Prefetched records one document of the given size transferred by
// prefetching at time at.
func (s *Scorer) Prefetched(at time.Time, size int64) {
	s.prefetchedDocs.Add(1)
	s.transferred.Add(size)
	s.prefetchedB.Add(size)
	if s.roll != nil {
		s.roll.prefetchedDocs.Inc(at)
		s.roll.transferred.Add(at, size)
		s.roll.prefetchedB.Add(at, size)
	}
}

// Total returns the cumulative snapshot.
func (s *Scorer) Total() Snapshot {
	return Snapshot{
		Requests:         s.requests.Load(),
		CacheHits:        s.cacheHits.Load(),
		PrefetchHits:     s.prefetchHits.Load(),
		PrefetchedDocs:   s.prefetchedDocs.Load(),
		TransferredBytes: s.transferred.Load(),
		UsefulBytes:      s.useful.Load(),
		PrefetchedBytes:  s.prefetchedB.Load(),
	}
}

// Windowed reports whether this scorer maintains rolling windows.
func (s *Scorer) Windowed() bool { return s.roll != nil }

// Window returns the snapshot over the trailing span (clamped to the
// scorer's window Span; zero selects the full Span). A
// cumulative-only scorer returns Total.
func (s *Scorer) Window(span time.Duration) Snapshot {
	if s.roll == nil {
		return s.Total()
	}
	return Snapshot{
		Requests:         s.roll.requests.Sum(span),
		CacheHits:        s.roll.cacheHits.Sum(span),
		PrefetchHits:     s.roll.prefetchHits.Sum(span),
		PrefetchedDocs:   s.roll.prefetchedDocs.Sum(span),
		TransferredBytes: s.roll.transferred.Sum(span),
		UsefulBytes:      s.roll.useful.Sum(span),
		PrefetchedBytes:  s.roll.prefetchedB.Sum(span),
	}
}
