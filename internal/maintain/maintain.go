// Package maintain implements the model-maintenance loop the paper
// assumes ("the models are dynamically maintained and updated based on
// historical data during a period of time"): a sliding window of recent
// access sessions, an online popularity ranking over that window, and
// scheduled updates that keep the published predictor tracking live
// traffic.
//
// Two update paths exist, and both train serially, one session at a
// time through TrainSequence. The incremental path (DeltaMerge) absorbs
// only the sessions observed since the last update, the window's newest
// (up to a bound): they are trained straight into the editable model
// behind the live snapshot, which is then frozen and published again,
// so update cost tracks new traffic, not window size. The full path
// (Rebuild) is the periodic compaction: it trims expired sessions out
// of the window, re-derives the popularity ranking, and retrains from
// scratch — restoring the exact model a cold retrain would produce and
// re-applying the space optimizations. Run schedules both.
//
// Both paths are crash-safe: an update that panics, or that would
// replace a trained model with an empty one (a traffic lull trimming
// the whole window, clock skew jumping past it), is logged, counted in
// pbppm_rebuild_skipped_total, and discarded — the previous snapshot
// stays live instead of blanking or poisoning the server.
//
// The Maintainer is safe for concurrent use. Each update trains its
// model off to the side and then publishes it as an immutable snapshot
// through an atomic pointer: request-serving goroutines call Observe
// and Predictor while an update runs, and predictions on a published
// model are read-only. A trainable model is published as its frozen
// snapshot (markov.Freeze), a separate arena, so a delta merge training
// the model never touches what is served; the next update swaps in a
// whole new snapshot.
package maintain

import (
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
)

// Factory builds a fresh predictor from the window's popularity
// ranking; the maintainer then trains it on the window's sessions.
// For PB-PPM:
//
//	func(rank *popularity.Ranking) markov.Predictor {
//	    return core.New(rank, core.Config{RelProbCutoff: 0.01})
//	}
type Factory func(rank *popularity.Ranking) markov.Predictor

// DefaultMaxStaged bounds the delta staging buffer (sessions observed
// since the last update, awaiting the next delta merge). When the buffer
// is full the oldest staged sessions are dropped from staging only —
// they remain in the sliding window and are recovered by the next
// compaction.
const DefaultMaxStaged = 1 << 16

// Config parameterizes a Maintainer.
type Config struct {
	// Window is how much history rebuilds train on; zero selects the
	// paper's common 7-day window.
	Window time.Duration
	// Factory builds the model at each rebuild; required.
	Factory Factory
	// OnPublish, if set, receives every successfully published snapshot —
	// initial build, delta merge, or compaction. The HTTP server wires
	// its SetPredictor here so swaps reach the serving path immediately.
	// It is called with the maintainer's publish lock held and must not
	// call back into Rebuild or DeltaMerge.
	OnPublish func(markov.Predictor)
	// Obs registers maintenance metrics — rebuild and delta-merge
	// counters and latencies, the staged-session gauge, skip counters by
	// reason — and model-health gauges published at snapshot-swap time:
	// node/branch/leaf counts, max height, and approximate bytes, the
	// live counterpart of the paper's Figure 4 storage comparison. Nil
	// keeps the metrics process-internal.
	Obs *obs.Registry
	// Logger receives rebuild progress lines, tagged component=maintain;
	// nil discards them.
	Logger *slog.Logger
	// Annotations, if set, receives a publish-event marker for every
	// successful model swap — kind "compaction" for full rebuilds,
	// "delta_merge" for incremental merges — so dashboards and the
	// /debug/slo report can correlate quality shifts with model
	// updates. Nil disables the markers.
	Annotations *obs.Annotations
}

func (c Config) window() time.Duration {
	if c.Window <= 0 {
		return 7 * 24 * time.Hour
	}
	return c.Window
}

// Skip reasons recorded in pbppm_rebuild_skipped_total{reason}.
const (
	// skipEmptyWindow: the trimmed window held no sessions while a
	// trained model was already published.
	skipEmptyWindow = "empty_window"
	// skipEmptyModel: training produced an empty model from a non-empty
	// window (e.g. over-aggressive pruning) while a trained one is live.
	skipEmptyModel = "empty_model"
	// skipPanic: the factory, training, or merge panicked.
	skipPanic = "panic"
)

// predictorCell boxes the published model so an interface value can sit
// behind an atomic.Pointer.
type predictorCell struct{ p markov.Predictor }

// maintainMetrics holds the update-loop metrics and the model-health
// gauges, registered when Config.Obs is set (nil-registry safe).
type maintainMetrics struct {
	rebuilds        *obs.Counter
	rebuildSeconds  *obs.Histogram
	deltaMerges     *obs.Counter
	deltaSeconds    *obs.Histogram
	deltaSessions   *obs.Counter
	skippedEmptyWin *obs.Counter
	skippedEmptyMdl *obs.Counter
	skippedPanic    *obs.Counter
	stagedSessions  *obs.Gauge
	stagedDropped   *obs.Counter
	windowSessions  *obs.Gauge
	modelNodes      *obs.Gauge
	modelBranches   *obs.Gauge
	modelLeaves     *obs.Gauge
	modelMaxHeight  *obs.Gauge
	modelBytes      *obs.Gauge
	modelArenaBytes *obs.Gauge
}

func newMaintainMetrics(reg *obs.Registry) *maintainMetrics {
	reason := func(v string) obs.Label { return obs.Label{Name: "reason", Value: v} }
	const skipHelp = "Model updates discarded instead of published, by reason; the previous snapshot stayed live."
	return &maintainMetrics{
		rebuilds: reg.Counter("pbppm_rebuilds_total",
			"Completed full model rebuilds (compactions)."),
		rebuildSeconds: reg.Histogram("pbppm_rebuild_seconds",
			"Model rebuild duration: window trim, ranking, training, optimization.", nil),
		deltaMerges: reg.Counter("pbppm_delta_merges_total",
			"Completed incremental delta merges (staged sessions trained into the editable model and published as its freeze)."),
		deltaSeconds: reg.Histogram("pbppm_delta_merge_seconds",
			"Delta-merge duration: training the batch into the editable model, freeze, publish.", nil),
		deltaSessions: reg.Counter("pbppm_delta_sessions_total",
			"Sessions absorbed through the incremental delta-merge path."),
		skippedEmptyWin: reg.Counter("pbppm_rebuild_skipped_total", skipHelp, reason(skipEmptyWindow)),
		skippedEmptyMdl: reg.Counter("pbppm_rebuild_skipped_total", skipHelp, reason(skipEmptyModel)),
		skippedPanic:    reg.Counter("pbppm_rebuild_skipped_total", skipHelp, reason(skipPanic)),
		stagedSessions: reg.Gauge("pbppm_staged_sessions",
			"Sessions staged for the next incremental delta merge."),
		stagedDropped: reg.Counter("pbppm_staged_dropped_total",
			"Oldest staged sessions dropped by the staging bound; the window keeps them for the next compaction."),
		windowSessions: reg.Gauge("pbppm_window_sessions",
			"Sessions in the sliding training window at the last rebuild."),
		modelNodes: reg.Gauge("pbppm_model_nodes",
			"URL nodes in the published model, the paper's storage metric (Figure 4)."),
		modelBranches: reg.Gauge("pbppm_model_branches",
			"Root branches in the published model."),
		modelLeaves: reg.Gauge("pbppm_model_leaves",
			"Root-to-leaf paths in the published model."),
		modelMaxHeight: reg.Gauge("pbppm_model_max_height",
			"Longest branch of the published model, in nodes."),
		modelBytes: reg.Gauge("pbppm_model_bytes",
			"Approximate in-memory size of the published model."),
		modelArenaBytes: reg.Gauge("pbppm_model_arena_bytes",
			"Size of the published model's frozen arena image in bytes; zero when the published model is not arena-backed."),
	}
}

// window is the sliding training window, kept as columns so that only
// the URL table holds pointers: session i started at starts[i] (Unix
// nanoseconds, for trimming) and clicked the URLs whose table ids are
// ids[ends[i-1]:ends[i]] (ids[:ends[0]] for the first). Observe appends
// to the columns and interns each URL once, so a session costs 12 bytes
// plus 4 a click and its own URL strings are never copied. Only
// Rebuild rewrites the columns, in place; see trim. The int32 ends
// bound the window at math.MaxInt32 clicks (8 GiB of ids).
type window struct {
	starts []int64
	ends   []int32
	ids    []uint32
	urls   []string          // the table: id -> URL
	index  map[string]uint32 // URL -> id
}

// add appends one session, or reports false when the window already
// holds as many clicks as its ends can count; the caller holds mu.
func (w *window) add(s session.Session) bool {
	if len(w.ids) > math.MaxInt32-len(s.Views) {
		return false
	}
	for _, v := range s.Views {
		id, ok := w.index[v.URL]
		if !ok {
			id = uint32(len(w.urls))
			w.urls = append(w.urls, v.URL)
			w.index[v.URL] = id
		}
		w.ids = append(w.ids, id)
	}
	w.starts = append(w.starts, unixNanos(s.Start()))
	w.ends = append(w.ends, int32(len(w.ids)))
	return true
}

// trim drops the sessions that started before cutoff, moving the kept
// ones down in place, and returns how many clicks of the kept sessions
// name each URL id. Once fewer than half the table's URLs are named, it
// rebuilds the table into fresh arrays holding only those, so the table
// stays bounded as a site's URLs change; the returned counts then follow
// the new ids. The caller holds mu and publishMu: no trainer holds a
// span of the window while it is rewritten.
func (w *window) trim(cutoff int64) []int64 {
	refs := make([]int64, len(w.urls))
	kept, out, lo := 0, int32(0), int32(0)
	for i, start := range w.starts {
		hi := w.ends[i]
		if start >= cutoff {
			for _, id := range w.ids[lo:hi] {
				w.ids[out] = id
				out++
				refs[id]++
			}
			w.starts[kept], w.ends[kept] = start, out
			kept++
		}
		lo = hi
	}
	w.starts, w.ends, w.ids = w.starts[:kept], w.ends[:kept], w.ids[:out]

	live := 0
	for _, n := range refs {
		if n > 0 {
			live++
		}
	}
	if 2*live >= len(w.urls) {
		return refs
	}
	remap := make([]uint32, len(w.urls))
	urls := make([]string, 0, live)
	index := make(map[string]uint32, live)
	for id, n := range refs {
		if n > 0 {
			remap[id] = uint32(len(urls))
			index[w.urls[id]] = uint32(len(urls))
			refs[len(urls)] = n
			urls = append(urls, w.urls[id])
		}
	}
	for i, id := range w.ids {
		w.ids[i] = remap[id]
	}
	w.urls, w.index = urls, index
	return refs[:live]
}

// tail returns the span of the window's last n sessions; the caller
// holds mu.
func (w *window) tail(n int) span {
	k := len(w.ends) - n
	sp := span{ends: w.ends[k:], ids: w.ids, urls: w.urls}
	if k > 0 {
		sp.first = w.ends[k-1]
	}
	return sp
}

// span is a run of window sessions, taken under mu and read outside it:
// the sessions' ends into ids, the offset the first one starts at, and
// the URL table the ids index. Reading it without mu is safe because
// Observe only appends past the lengths a span holds, and only Rebuild,
// serialized with every span's reader by publishMu, rewrites the
// columns.
type span struct {
	first int32
	ends  []int32
	ids   []uint32
	urls  []string
}

// train folds each session of the span into p, in window order,
// through one buffer sized to the longest session:
// markov.Predictor.TrainSequence keeps nothing of its argument.
func (sp span) train(p markov.Predictor) {
	longest, lo := int32(0), sp.first
	for _, hi := range sp.ends {
		longest = max(longest, hi-lo)
		lo = hi
	}
	seq := make([]string, 0, longest)
	lo = sp.first
	for _, hi := range sp.ends {
		seq = seq[:0]
		for _, id := range sp.ids[lo:hi] {
			seq = append(seq, sp.urls[id])
		}
		p.TrainSequence(seq)
		lo = hi
	}
}

// The range of times Unix nanoseconds can represent.
var (
	minUnixNanos = time.Unix(0, math.MinInt64)
	maxUnixNanos = time.Unix(0, math.MaxInt64)
)

// unixNanos returns t's wall-clock reading as Unix nanoseconds,
// saturated at the int64 range, so the zero time sorts before every
// cutoff instead of overflowing.
func unixNanos(t time.Time) int64 {
	switch {
	case t.Before(minUnixNanos):
		return math.MinInt64
	case t.After(maxUnixNanos):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// Maintainer keeps the sliding session window, the count of its
// sessions staged for the next delta merge, and the current model.
type Maintainer struct {
	cfg     Config
	metrics *maintainMetrics
	log     *slog.Logger

	mu  sync.Mutex
	win window // the sliding window, roughly ordered by start time

	// staged counts the sessions observed since the last update, which
	// await the next delta merge; at most DefaultMaxStaged. Observe
	// appends to the window and counts under mu, and every update that
	// trims the window resets the count in the same critical section, so
	// the staged sessions are always the window's last staged entries.
	staged int

	// publishMu serializes model updates (Rebuild, DeltaMerge) against
	// each other so a delta merge never trains a model that a concurrent
	// compaction is about to replace. Observe and Predictor never take
	// it.
	publishMu sync.Mutex

	// editable is the live (mutable) model behind the published
	// snapshot, which is its frozen arena image when the model can
	// freeze. Delta merges train it in place; nil after a delta merge
	// panicked, so the next update rebuilds. Guarded by publishMu.
	editable markov.Predictor

	// current is the published model snapshot, swapped whole by updates
	// and read lock-free by Predictor.
	current atomic.Pointer[predictorCell]

	// lastRank is the popularity ranking derived from the window at the
	// last compaction, published for the serving layer to grade live
	// hint-lifecycle events (Ranking). Delta merges deliberately do not
	// touch it: like the space optimizations, re-ranking belongs to the
	// compaction path.
	lastRank atomic.Pointer[popularity.Ranking]

	// subscribers receive every published snapshot after Config.OnPublish;
	// guarded by publishMu so delivery serializes with publishes.
	subscribers []func(markov.Predictor)
}

// New returns an empty maintainer. It returns an error on a nil
// factory.
func New(cfg Config) (*Maintainer, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("maintain: nil model factory")
	}
	return &Maintainer{
		cfg:     cfg,
		metrics: newMaintainMetrics(cfg.Obs),
		log:     obs.Component(cfg.Logger, "maintain"),
		win:     window{index: make(map[string]uint32)},
	}, nil
}

// Observe appends a completed session to the window and stages it for
// the next delta merge. Sessions may arrive in any order; trimming does
// not assume chronological arrival. When staging overflows DefaultMaxStaged,
// the oldest staged sessions are dropped from staging (counted in
// pbppm_staged_dropped_total) — the window still holds them, so the
// next compaction trains on them. The maintainer keeps its own record
// of the session's URLs: the caller may reuse or modify s afterwards.
// Once the window's columns have grown, Observe allocates nothing for a
// session whose URLs the window already holds. A window full to its
// click bound ignores new sessions until a rebuild trims it.
func (m *Maintainer) Observe(s session.Session) {
	if s.Len() == 0 {
		return
	}
	m.mu.Lock()
	if !m.win.add(s) {
		m.mu.Unlock()
		return
	}
	dropped := m.staged == DefaultMaxStaged
	if !dropped {
		m.staged++
	}
	// Set the gauge under mu so concurrent writers land in order.
	m.metrics.stagedSessions.Set(int64(m.staged))
	m.mu.Unlock()
	if dropped {
		m.metrics.stagedDropped.Inc()
	}
}

// WindowSize reports how many sessions the window currently holds.
func (m *Maintainer) WindowSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.win.starts)
}

// StagedSize reports how many sessions await the next delta merge.
func (m *Maintainer) StagedSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.staged
}

// Rebuilds reports how many full rebuilds (compactions) have published.
func (m *Maintainer) Rebuilds() int {
	return int(m.metrics.rebuilds.Value())
}

// DeltaMerges reports how many incremental delta merges have published.
func (m *Maintainer) DeltaMerges() int {
	return int(m.metrics.deltaMerges.Value())
}

// SkippedUpdates reports how many updates were discarded instead of
// published (empty window, empty model, or panic), keeping the previous
// snapshot live.
func (m *Maintainer) SkippedUpdates() int {
	return int(m.metrics.skippedEmptyWin.Value() +
		m.metrics.skippedEmptyMdl.Value() +
		m.metrics.skippedPanic.Value())
}

// Predictor returns the current model snapshot, or nil before the
// first update. The snapshot is immutable: predictions on it are
// read-only and safe for unsynchronized concurrent use (a trainable
// model is published frozen), and it is never trained again — the next
// update publishes a fresh model instead of mutating this one.
func (m *Maintainer) Predictor() markov.Predictor {
	if c := m.current.Load(); c != nil {
		return c.p
	}
	return nil
}

// Ranking returns the popularity ranking derived from the window at
// the last compaction, or nil before the first one. It implements
// popularity.Grader, so the serving layer can grade live hint events
// with the same ranking the published model was built from.
func (m *Maintainer) Ranking() *popularity.Ranking {
	return m.lastRank.Load()
}

// takeStaged drains the staging buffer and returns the span of the
// staged sessions, the window's tail, ready for training. The caller
// holds publishMu.
func (m *Maintainer) takeStaged() span {
	m.mu.Lock()
	batch := m.win.tail(m.staged)
	m.clearStagedLocked()
	m.mu.Unlock()
	return batch
}

// clearStagedLocked empties the staging buffer and its gauge; the
// caller holds mu.
func (m *Maintainer) clearStagedLocked() {
	m.staged = 0
	m.metrics.stagedSessions.Set(0)
}

// guarded runs fn and converts a panic into an error, so one poisoned
// window or model bug cannot kill the maintenance loop or unpublish the
// live snapshot.
func guarded(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("maintain: update panicked: %v", r)
		}
	}()
	fn()
	return nil
}

// skip records one discarded update and logs it.
func (m *Maintainer) skip(op, reason string, detail any) {
	switch reason {
	case skipEmptyWindow:
		m.metrics.skippedEmptyWin.Inc()
	case skipEmptyModel:
		m.metrics.skippedEmptyMdl.Inc()
	default:
		m.metrics.skippedPanic.Inc()
	}
	m.log.Warn("model update skipped; previous snapshot stays live",
		"op", op, "reason", reason, "detail", detail)
}

// publish installs model as the live snapshot and returns the
// predictor actually published. The model becomes the editable base
// that future delta merges train in place; what gets served is
// markov.Freeze(model), its frozen arena image when the model can
// freeze — O(1) GC objects, allocation-free predictions — and the model
// itself otherwise. Either way the published predictor is immutable
// from here on: the atomic pointer is swapped, the model-health gauges
// refresh, and Config.OnPublish fires. The caller holds publishMu.
func (m *Maintainer) publish(model markov.Predictor) markov.Predictor {
	m.editable = model
	published := markov.Freeze(model)
	m.current.Store(&predictorCell{p: published})
	m.metrics.modelNodes.Set(int64(published.NodeCount()))
	if st, ok := markov.StatsOf(published); ok {
		m.metrics.modelBranches.Set(int64(st.Roots))
		m.metrics.modelLeaves.Set(int64(st.Leaves))
		m.metrics.modelMaxHeight.Set(int64(st.MaxDepth))
		m.metrics.modelBytes.Set(st.Bytes)
	}
	if ah, ok := published.(markov.ArenaHolder); ok && ah.Arena() != nil {
		m.metrics.modelArenaBytes.Set(int64(ah.Arena().SizeBytes()))
	} else {
		m.metrics.modelArenaBytes.Set(0)
	}
	if m.cfg.OnPublish != nil {
		m.cfg.OnPublish(published)
	}
	for _, fn := range m.subscribers {
		fn(published)
	}
	return published
}

// Subscribe registers fn to receive every subsequently published
// snapshot — the fan-out a cluster uses to replicate one immutable
// model to all its shards (each shard's SetPredictor is a pointer
// swap; the snapshot itself is shared). If a snapshot is already
// published, fn receives it immediately, so subscription order and
// publish order cannot race a subscriber into staleness. Like
// Config.OnPublish, fn runs with the publish lock held and must not
// call back into Rebuild or DeltaMerge.
func (m *Maintainer) Subscribe(fn func(markov.Predictor)) {
	m.publishMu.Lock()
	defer m.publishMu.Unlock()
	m.subscribers = append(m.subscribers, fn)
	if p := m.Predictor(); p != nil {
		fn(p)
	}
}

// InstallSnapshot publishes a model that arrived from another process
// through the snapshot-distribution channel, running it through the
// same crash-safe gate local updates use: an empty model never replaces
// a trained one, a publish panic is contained, and either rejection
// keeps the previous snapshot live (counted in
// pbppm_rebuild_skipped_total like any other discarded update). The
// ranking travels with the model and is stored first, so an OnPublish
// observer grading by Ranking() sees the ranking the model was built
// from — without it a remote shard would silently grade every hint
// event popularity-unknown.
//
// The installed model is typically frozen (not a markov.Freezer), so
// on a follower DeltaMerge degrades to rebuild; followers do not run
// local maintenance loops, so that path stays cold.
func (m *Maintainer) InstallSnapshot(model markov.Predictor, rank *popularity.Ranking) error {
	if model == nil {
		return fmt.Errorf("maintain: install of nil model")
	}
	m.publishMu.Lock()
	defer m.publishMu.Unlock()

	prev := m.Predictor()
	if model.NodeCount() == 0 && prev != nil && prev.NodeCount() > 0 {
		m.skip("install-snapshot", skipEmptyModel, model.Name())
		return fmt.Errorf("maintain: snapshot model is empty while a trained model is live")
	}
	if err := guarded(func() {
		if rank != nil {
			m.lastRank.Store(rank)
		}
		m.publish(model)
	}); err != nil {
		m.skip("install-snapshot", skipPanic, err)
		return err
	}
	m.cfg.Annotations.Add("snapshot_install",
		fmt.Sprintf("model=%s nodes=%d", model.Name(), model.NodeCount()))
	m.log.Info("snapshot model installed",
		"model", model.Name(), "nodes", model.NodeCount())
	return nil
}

// Rebuild is the full update path, used for the initial build and for
// periodic compactions: it trims the window to cfg.Window ending at
// now, re-derives the popularity ranking, constructs a fresh model
// through the factory, trains it on the whole window, runs its space
// optimization, and publishes it atomically. The staging buffer is
// cleared — everything staged is inside the window just trained (or
// expired with it). It returns the installed predictor, or the
// previous one when the update was skipped (empty window or model
// while a trained snapshot is live, or a panic during training).
//
// The expensive training runs outside the session lock: Observe,
// Predictor, and the serving path stay responsive during a rebuild.
func (m *Maintainer) Rebuild(now time.Time) markov.Predictor {
	m.publishMu.Lock()
	defer m.publishMu.Unlock()
	return m.rebuildLocked(now)
}

func (m *Maintainer) rebuildLocked(now time.Time) markov.Predictor {
	start := time.Now()
	cutoff := now.Add(-m.cfg.window())

	// Trim under the lock. Sessions may have been observed out of order,
	// so filter the whole window rather than scanning an expired prefix.
	// A session starting exactly at the cutoff is kept.
	m.mu.Lock()
	refs := m.win.trim(unixNanos(cutoff))
	kept := m.win.tail(len(m.win.ends))
	m.clearStagedLocked()
	m.mu.Unlock()
	sessions := len(kept.ends)

	prev := m.Predictor()
	if sessions == 0 && prev != nil {
		// A traffic lull or clock skew emptied the window; publishing the
		// resulting empty model would blank a trained server.
		m.skip("rebuild", skipEmptyWindow, now)
		return prev
	}

	var model markov.Predictor
	var rank *popularity.Ranking
	err := guarded(func() {
		rank = popularity.NewRanking()
		for id, n := range refs {
			if n > 0 {
				rank.Observe(kept.urls[id], n)
			}
		}
		model = m.cfg.Factory(rank)
		kept.train(model)
		if opt, ok := model.(interface{ Optimize() int }); ok {
			opt.Optimize()
		}
	})
	if err != nil {
		m.skip("rebuild", skipPanic, err)
		return prev
	}
	if model == nil || (model.NodeCount() == 0 && prev != nil && prev.NodeCount() > 0) {
		m.skip("rebuild", skipEmptyModel, sessions)
		return prev
	}

	// Publish the ranking before the model so an OnPublish observer
	// that grades by Ranking() sees the ranking the new model was
	// built from, not the previous compaction's.
	m.lastRank.Store(rank)
	published := m.publish(model)
	m.cfg.Annotations.Add("compaction",
		fmt.Sprintf("model=%s sessions=%d nodes=%d",
			published.Name(), sessions, published.NodeCount()))

	dur := time.Since(start)
	m.metrics.rebuilds.Inc()
	m.metrics.rebuildSeconds.Observe(dur)
	m.metrics.windowSessions.Set(int64(sessions))
	m.log.Info("model rebuilt",
		"model", published.Name(),
		"sessions", sessions,
		"nodes", published.NodeCount(),
		"arena_bytes", m.metrics.modelArenaBytes.Value(),
		"duration", dur.Round(time.Millisecond))
	return published
}

// DeltaMerge is the incremental update path: it drains the staging
// buffer, trains only the drained sessions into the editable model
// behind the live snapshot, in arrival order, and publishes that
// model's freeze — cost proportional to the delta plus the freeze, not
// to retraining the window. The published snapshot is a separate
// arena, so training in place never touches what is served. Space
// optimizations and popularity re-ranking are deliberately not applied
// here; the next compaction (Rebuild) restores the canonical
// from-scratch model.
//
// When no model is published yet, or the editable model is not a
// markov.Freezer (its published form is the model itself: a snapshot
// installed from a publisher), DeltaMerge falls back to a full rebuild. An empty staging buffer is a no-op. A merge that panics, or
// that leaves a trained model empty, keeps the previous snapshot live
// and is counted; the batch is at least partly trained in, so the
// editable model is dropped and the next update rebuilds from the
// window, which still holds the batch.
func (m *Maintainer) DeltaMerge(now time.Time) markov.Predictor {
	m.publishMu.Lock()
	defer m.publishMu.Unlock()

	prev := m.Predictor()
	if _, ok := m.editable.(markov.Freezer); prev == nil || !ok {
		return m.rebuildLocked(now)
	}
	batch := m.takeStaged()
	if len(batch.ends) == 0 {
		return prev
	}

	start := time.Now()
	if err := guarded(func() { batch.train(m.editable) }); err != nil {
		m.editable = nil
		m.skip("delta-merge", skipPanic, err)
		return prev
	}
	if m.editable.NodeCount() == 0 && prev.NodeCount() > 0 {
		m.editable = nil
		m.skip("delta-merge", skipEmptyModel, len(batch.ends))
		return prev
	}

	published := m.publish(m.editable)
	m.cfg.Annotations.Add("delta_merge",
		fmt.Sprintf("model=%s delta_sessions=%d nodes=%d",
			published.Name(), len(batch.ends), published.NodeCount()))

	dur := time.Since(start)
	m.metrics.deltaMerges.Inc()
	m.metrics.deltaSeconds.Observe(dur)
	m.metrics.deltaSessions.Add(int64(len(batch.ends)))
	m.log.Info("model delta-merged",
		"model", published.Name(),
		"delta_sessions", len(batch.ends),
		"nodes", published.NodeCount(),
		"arena_bytes", m.metrics.modelArenaBytes.Value(),
		"duration", dur.Round(time.Millisecond))
	return published
}

// Run runs the maintenance schedule until stop is closed: a compaction
// (Rebuild) every compact interval and, when 0 < delta < compact, a
// delta merge every delta interval in between; intended as
//
//	stop := make(chan struct{})
//	go maint.Run(delta, compact, stop)
//
// compact must be positive. The first update happens after the first
// interval elapses. Each update reads the wall clock at update start —
// not the ticker's receive value, which lags under load and would drift
// the window cutoff — and update panics are contained (see Rebuild and
// DeltaMerge), so one bad window cannot kill maintenance permanently.
func (m *Maintainer) Run(delta, compact time.Duration, stop <-chan struct{}) {
	compactTick := time.NewTicker(compact)
	defer compactTick.Stop()
	var deltaC <-chan time.Time // nil, and never ready, without deltas
	if delta > 0 && delta < compact {
		deltaTick := time.NewTicker(delta)
		defer deltaTick.Stop()
		deltaC = deltaTick.C
	}
	for {
		select {
		case <-stop:
			return
		case <-compactTick.C:
			m.Rebuild(time.Now())
		case <-deltaC:
			m.DeltaMerge(time.Now())
		}
	}
}
