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
// additionally keeps its counts in a rolling ring so the same event
// stream answers "over the last five minutes" as well as "since
// start". Each event carries its time, which files it in the ring; a
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

// The scorer's counts, indexed: its cumulative vector and its
// window ring's columns.
const (
	requests = iota
	cacheHits
	prefetchHits
	prefetchedDocs
	transferred
	useful
	prefetchedBytes
	numCounts
)

// snapshotOf names a vector of the scorer's counts.
func snapshotOf(v []int64) Snapshot {
	return Snapshot{
		Requests:         v[requests],
		CacheHits:        v[cacheHits],
		PrefetchHits:     v[prefetchHits],
		PrefetchedDocs:   v[prefetchedDocs],
		TransferredBytes: v[transferred],
		UsefulBytes:      v[useful],
		PrefetchedBytes:  v[prefetchedBytes],
	}
}

// Scorer accumulates quality events. All methods are safe for
// unsynchronized concurrent use; every event is a handful of atomic
// adds (twice that when windowed).
type Scorer struct {
	total [numCounts]atomic.Int64
	roll  *obs.RollingCounts // one column per count; nil for cumulative-only scorers
}

// NewScorer returns a cumulative-only scorer — the simulator's mode:
// no windows, minimal per-event cost.
func NewScorer() *Scorer { return &Scorer{} }

// NewWindowedScorer returns a scorer that additionally answers
// Window(span) queries for any span up to w's Span — the live server's
// mode.
func NewWindowedScorer(w obs.Window) *Scorer {
	return &Scorer{roll: obs.NewRollingCounts(w, numCounts)}
}

// count adds one event's nonzero counts to the totals and, when
// windowed, to at's bucket.
func (s *Scorer) count(at time.Time, d *[numCounts]int64) {
	for c, n := range d {
		if n != 0 {
			s.total[c].Add(n)
		}
	}
	if s.roll == nil {
		return
	}
	row := s.roll.Row(at)
	for c, n := range d {
		if n != 0 {
			row[c].Add(n)
		}
	}
}

// Demand records one demand page request of the given transfer size,
// made at time at and classified by how it was served. Following the
// paper's accounting (and the simulator's): a miss transfers size
// bytes, all useful; a prefetch hit makes the earlier prefetched
// transfer useful retroactively (size bytes are credited to useful,
// none transferred now); an ordinary cache hit moves no bytes.
func (s *Scorer) Demand(at time.Time, size int64, o Outcome) {
	d := [numCounts]int64{requests: 1}
	switch o {
	case CacheHit:
		d[cacheHits] = 1
	case PrefetchHit:
		d[prefetchHits], d[useful] = 1, size
	default: // Miss
		d[transferred], d[useful] = size, size
	}
	s.count(at, &d)
}

// Prefetched records one document of the given size transferred by
// prefetching at time at.
func (s *Scorer) Prefetched(at time.Time, size int64) {
	s.count(at, &[numCounts]int64{prefetchedDocs: 1, transferred: size, prefetchedBytes: size})
}

// Total returns the cumulative snapshot.
func (s *Scorer) Total() Snapshot {
	var v [numCounts]int64
	for c := range v {
		v[c] = s.total[c].Load()
	}
	return snapshotOf(v[:])
}

// Window returns the snapshot over the trailing span (clamped to the
// scorer's window Span; zero selects the full Span). A
// cumulative-only scorer returns Total.
func (s *Scorer) Window(span time.Duration) Snapshot {
	if s.roll == nil {
		return s.Total()
	}
	return snapshotOf(s.roll.Sums(span))
}
