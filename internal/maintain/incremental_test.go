package maintain

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
)

// batchSessions builds deterministic sessions with overlapping URL
// paths so delta merges both extend existing branches and add new ones.
func batchSessions(startHour, n, variant int) []session.Session {
	out := make([]session.Session, 0, n)
	for i := 0; i < n; i++ {
		u1 := fmt.Sprintf("/hub%d", i%4)
		u2 := fmt.Sprintf("/page%d", (i+variant)%8)
		u3 := fmt.Sprintf("/leaf%d", (i*variant)%16)
		out = append(out, mkSession(startHour+i, u1, u2, u3))
	}
	return out
}

func TestDeltaMergeAbsorbsStagedSessions(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Observe(mkSession(i, "/home", "/news"))
	}
	base := m.Rebuild(epoch.Add(12 * time.Hour))
	if m.StagedSize() != 0 {
		t.Fatalf("staging not cleared by rebuild: %d", m.StagedSize())
	}

	// New traffic arrives and is staged.
	for i := 0; i < 5; i++ {
		m.Observe(mkSession(13+i, "/home", "/fresh"))
	}
	if m.StagedSize() != 5 {
		t.Fatalf("StagedSize = %d, want 5", m.StagedSize())
	}

	merged := m.DeltaMerge(epoch.Add(19 * time.Hour))
	if merged == base {
		t.Fatal("delta merge republished the old snapshot")
	}
	if m.DeltaMerges() != 1 || m.Rebuilds() != 1 {
		t.Errorf("DeltaMerges/Rebuilds = %d/%d, want 1/1", m.DeltaMerges(), m.Rebuilds())
	}
	if m.StagedSize() != 0 {
		t.Errorf("staging not drained: %d", m.StagedSize())
	}
	got := merged.Predict([]string{"/home"})
	found := false
	for _, p := range got {
		if p.URL == "/fresh" {
			found = true
		}
	}
	if !found {
		t.Errorf("merged model does not predict the delta: %+v", got)
	}
	// The previously published snapshot is its own arena: training the
	// editable model in place left it knowing nothing about the delta.
	for _, p := range base.Predict([]string{"/home"}) {
		if p.URL == "/fresh" {
			t.Errorf("delta merge mutated the published snapshot: %+v", p)
		}
	}
	// Nothing staged: a second delta merge is a no-op returning the same
	// snapshot.
	if again := m.DeltaMerge(epoch.Add(20 * time.Hour)); again != merged {
		t.Error("empty delta merge swapped the snapshot")
	}
	if m.DeltaMerges() != 1 {
		t.Errorf("empty delta merge counted: %d", m.DeltaMerges())
	}
}

// TestPublishedSnapshotNeverChanges: a delta merge trains the editable
// model in place, so the snapshot published before it must be a
// separate image — its arena bytes and its predictions stay as they
// were when it was published.
func TestPublishedSnapshotNeverChanges(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		m.Observe(mkSession(i, "/home", "/news", "/news/today"))
	}
	snap := m.Rebuild(epoch.Add(8 * time.Hour))
	ctxs := [][]string{{"/home"}, {"/news"}, {"/home", "/news"}, {"/fresh"}}
	preds := make([][]markov.Prediction, len(ctxs))
	for i, ctx := range ctxs {
		preds[i] = snap.Predict(ctx)
	}
	var image []byte
	if ah, ok := snap.(markov.ArenaHolder); ok && ah.Arena() != nil {
		image = bytes.Clone(ah.Arena().Bytes())
	} else {
		t.Errorf("published model %T is not arena-backed", snap)
	}

	for i := 0; i < 8; i++ {
		m.Observe(mkSession(9+i, "/home", "/fresh", "/news"))
	}
	m.DeltaMerge(epoch.Add(20 * time.Hour))
	if m.DeltaMerges() != 1 {
		t.Fatalf("setup: DeltaMerges = %d, want 1", m.DeltaMerges())
	}
	for i, ctx := range ctxs {
		if got := snap.Predict(ctx); !reflect.DeepEqual(got, preds[i]) {
			t.Errorf("Predict(%v) on the earlier snapshot changed to %+v, was %+v", ctx, got, preds[i])
		}
	}
	if image != nil && !bytes.Equal(arenaImage(t, snap), image) {
		t.Error("the delta merge rewrote the earlier snapshot's arena")
	}
}

func TestDeltaMergeFallsBackToRebuildWithoutModel(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/a", "/b"))
	model := m.DeltaMerge(epoch.Add(time.Hour))
	if model == nil {
		t.Fatal("fallback rebuild published nothing")
	}
	if m.Rebuilds() != 1 || m.DeltaMerges() != 0 {
		t.Errorf("Rebuilds/DeltaMerges = %d/%d, want 1/0", m.Rebuilds(), m.DeltaMerges())
	}
}

// TestDeltaMergesPlusCompactionEqualRetrain is the acceptance
// equivalence: a predictor produced by N delta merges followed by one
// compaction must yield identical predictions and identical
// markov.StatsOf node/branch counts to a from-scratch retrain over the
// same window.
func TestDeltaMergesPlusCompactionEqualRetrain(t *testing.T) {
	incremental, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}

	batches := [][]session.Session{
		batchSessions(0, 20, 1),
		batchSessions(24, 15, 2),
		batchSessions(48, 25, 3),
		batchSessions(72, 10, 5),
	}

	// Incremental path: initial build, then one delta merge per batch.
	for _, s := range batches[0] {
		incremental.Observe(s)
	}
	incremental.Rebuild(epoch.Add(23 * time.Hour))
	for bi, batch := range batches[1:] {
		for _, s := range batch {
			incremental.Observe(s)
		}
		incremental.DeltaMerge(epoch.Add(time.Duration(24*(bi+2)) * time.Hour))
	}
	if got, want := incremental.DeltaMerges(), len(batches)-1; got != want {
		t.Fatalf("DeltaMerges = %d, want %d", got, want)
	}

	// From-scratch path: observe everything, build once.
	for _, batch := range batches {
		for _, s := range batch {
			scratch.Observe(s)
		}
	}
	now := epoch.Add(100 * time.Hour)
	compacted := incremental.Rebuild(now) // the compaction
	retrained := scratch.Rebuild(now)

	cs, ok1 := markov.StatsOf(compacted)
	rs, ok2 := markov.StatsOf(retrained)
	if !ok1 || !ok2 {
		t.Fatal("models expose no tree stats")
	}
	if cs.Nodes != rs.Nodes || cs.Roots != rs.Roots || cs.Leaves != rs.Leaves ||
		cs.MaxDepth != rs.MaxDepth || cs.TotalCount != rs.TotalCount {
		t.Errorf("compacted stats %+v != retrained stats %+v", cs, rs)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			ctx := []string{fmt.Sprintf("/hub%d", i), fmt.Sprintf("/page%d", j)}
			got := compacted.Predict(ctx)
			want := retrained.Predict(ctx)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Predict(%v): compacted %+v, retrained %+v", ctx, got, want)
			}
		}
	}
}

// TestEmptyWindowRebuildKeepsSnapshot is the satellite-1 regression: a
// rebuild over an empty window (traffic lull, clock skew past the
// window) must keep the trained snapshot live and count the skip,
// instead of publishing an empty model over it.
func TestEmptyWindowRebuildKeepsSnapshot(t *testing.T) {
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/home", "/news"))
	trained := m.Rebuild(epoch.Add(2 * time.Hour))
	if trained == nil || trained.NodeCount() == 0 {
		t.Fatal("setup: no trained model")
	}

	// A rebuild far past the window trims every session.
	got := m.Rebuild(epoch.Add(1000 * time.Hour))
	if got != trained {
		t.Error("empty-window rebuild replaced the trained snapshot")
	}
	if m.Predictor() != trained {
		t.Error("published predictor changed on an empty-window rebuild")
	}
	if m.Rebuilds() != 1 {
		t.Errorf("Rebuilds = %d, want 1 (the skip must not count)", m.Rebuilds())
	}
	if v := m.metrics.skippedEmptyWin.Value(); v != 1 {
		t.Errorf("skipped{empty_window} = %d, want 1", v)
	}
	if m.SkippedUpdates() != 1 {
		t.Errorf("SkippedUpdates = %d, want 1", m.SkippedUpdates())
	}
	// Before any publish, an empty window still publishes the empty
	// model (there is nothing to protect).
	m2, _ := New(Config{Factory: pbFactory})
	if m2.Rebuild(epoch) == nil {
		t.Error("first rebuild with no history published nothing")
	}
}

// TestPanickingFactoryKeepsPreviousSnapshot is the satellite-3
// crash-safety test: a factory that panics must not unpublish the live
// model, must be counted, and must not kill the Run loop.
func TestPanickingFactoryKeepsPreviousSnapshot(t *testing.T) {
	var panicking bool
	factory := func(rank *popularity.Ranking) markov.Predictor {
		if panicking {
			panic("injected factory failure")
		}
		return pbFactory(rank)
	}
	m, err := New(Config{Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/home", "/news"))
	trained := m.Rebuild(epoch.Add(time.Hour))

	panicking = true
	m.Observe(mkSession(1, "/home", "/later"))
	if got := m.Rebuild(epoch.Add(2 * time.Hour)); got != trained {
		t.Error("panicking rebuild replaced the trained snapshot")
	}
	if m.Predictor() != trained {
		t.Error("published predictor changed after a factory panic")
	}
	if v := m.metrics.skippedPanic.Value(); v != 1 {
		t.Errorf("skipped{panic} = %d, want 1", v)
	}

	// The Run loop survives repeated panics; it keeps ticking and
	// counting skips instead of dying on the first one.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		m.Run(0, 2*time.Millisecond, stop)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for m.SkippedUpdates() < 3 {
		select {
		case <-deadline:
			t.Fatal("Run loop did not survive factory panics")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	if m.Predictor() != trained {
		t.Error("snapshot lost while the loop absorbed panics")
	}
}

// TestPanicDuringDeltaMergeKeepsSnapshot: the delta path has the same
// crash-safety contract; the dropped batch stays in the window for the
// next compaction to recover.
func TestPanicDuringDeltaMergeKeepsSnapshot(t *testing.T) {
	var trigger int
	factory := func(rank *popularity.Ranking) markov.Predictor {
		return &panicOnTrain{Predictor: pbFactory(rank), trigger: &trigger}
	}
	m, err := New(Config{Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/home", "/news"))
	trained := m.Rebuild(epoch.Add(time.Hour))

	trigger = 1 // the batch's first TrainSequence panics
	m.Observe(mkSession(2, "/home", "/fresh"))
	if got := m.DeltaMerge(epoch.Add(3 * time.Hour)); got != trained {
		t.Error("panicking delta merge replaced the snapshot")
	}
	if v := m.metrics.skippedPanic.Value(); v != 1 {
		t.Errorf("skipped{panic} = %d, want 1", v)
	}
	// The batch was drained from staging but survives in the window: a
	// compaction recovers it.
	recovered := m.Rebuild(epoch.Add(4 * time.Hour))
	found := false
	for _, p := range recovered.Predict([]string{"/home"}) {
		if p.URL == "/fresh" {
			found = true
		}
	}
	if !found {
		t.Error("compaction did not recover the dropped delta batch")
	}
}

// TestPanicMidBatchRebuildsFromWindow: a delta merge trains its batch
// into the editable model in place, so a panic can strike after part of
// the batch is in it. That model must go with the panic: the next delta
// merge rebuilds from the window, which still holds the whole dropped
// batch, and publishes exactly what a maintainer that never panicked
// publishes from the same window.
func TestPanicMidBatchRebuildsFromWindow(t *testing.T) {
	var trigger int
	factory := func(rank *popularity.Ranking) markov.Predictor {
		return &panicOnTrain{Predictor: pbFactory(rank), trigger: &trigger}
	}
	m, err := New(Config{Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	observe := func(ss ...session.Session) {
		for _, s := range ss {
			m.Observe(s)
			ref.Observe(s)
		}
	}
	observe(mkSession(0, "/home", "/news", "/news/today"), mkSession(1, "/home", "/sports"))
	m.Rebuild(epoch.Add(2 * time.Hour))

	observe(mkSession(3, "/home", "/dropped1"), mkSession(4, "/news", "/dropped2"),
		mkSession(5, "/sports", "/dropped3"))
	trigger = 2 // the batch's second session panics; the first is trained in
	m.DeltaMerge(epoch.Add(6 * time.Hour))
	if v := m.metrics.skippedPanic.Value(); v != 1 {
		t.Fatalf("skipped{panic} = %d, want 1", v)
	}

	observe(mkSession(7, "/home", "/fresh"), mkSession(8, "/news", "/news/today"))
	now := epoch.Add(9 * time.Hour)
	merged := m.DeltaMerge(now)
	if !bytes.Equal(arenaImage(t, merged), arenaImage(t, ref.Rebuild(now))) {
		t.Error("delta merge after a mid-batch panic did not rebuild from the window")
	}
	if m.Rebuilds() != 2 || m.DeltaMerges() != 0 {
		t.Errorf("Rebuilds/DeltaMerges = %d/%d, want 2/0", m.Rebuilds(), m.DeltaMerges())
	}

	// The compaction equals a rebuild by a maintainer that saw every
	// session and never panicked.
	now = epoch.Add(10 * time.Hour)
	if !bytes.Equal(arenaImage(t, m.Rebuild(now)), arenaImage(t, ref.Rebuild(now))) {
		t.Error("compaction did not recover the dropped delta batch")
	}
}

// panicOnTrain wraps a model so that, once trigger is set to n > 0, the
// n-th TrainSequence from then on panics, simulating a corrupt delta
// batch poisoning training; the panic disarms it. The wrapper publishes
// its model's frozen snapshot.
type panicOnTrain struct {
	markov.Predictor
	trigger *int
}

func (p *panicOnTrain) TrainSequence(seq []string) {
	if *p.trigger > 0 {
		*p.trigger--
		if *p.trigger == 0 {
			panic("injected training failure")
		}
	}
	p.Predictor.TrainSequence(seq)
}

func (p *panicOnTrain) Freeze() markov.Predictor { return markov.Freeze(p.Predictor) }

// TestWindowBoundaryExactCutoff pins the !Before(cutoff) contract: a
// session starting exactly at the cutoff is kept.
func TestWindowBoundaryExactCutoff(t *testing.T) {
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/exact", "/kept"))     // starts exactly at cutoff
	m.Observe(mkSession(-1, "/stale", "/trimmed")) // one hour before: out
	model := m.Rebuild(epoch.Add(24 * time.Hour))  // cutoff == epoch

	if m.WindowSize() != 1 {
		t.Errorf("WindowSize = %d, want 1", m.WindowSize())
	}
	if got := model.Predict([]string{"/exact"}); len(got) == 0 {
		t.Error("session starting exactly at the cutoff was trimmed")
	}
	if got := model.Predict([]string{"/stale"}); len(got) != 0 {
		t.Errorf("session before the cutoff survived: %+v", got)
	}
}

// recorder is a markov.Predictor that keeps a copy of every sequence
// it is trained on; it implements nothing else.
type recorder struct {
	markov.Predictor
	seqs [][]string
}

func (r *recorder) TrainSequence(seq []string) { r.seqs = append(r.seqs, slices.Clone(seq)) }

// spanSeqs turns a span of the window back into the URL sequences
// training it feeds a model.
func spanSeqs(sp span) [][]string {
	var r recorder
	sp.train(&r)
	return r.seqs
}

// TestStagedBatchIsWindowTail checks that a delta merge takes exactly
// the sessions observed since the last update, in arrival order, after
// a rebuild that trimmed the window and whatever their start times.
func TestStagedBatchIsWindowTail(t *testing.T) {
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/expired"))
	m.Observe(mkSession(30, "/kept"))
	m.Rebuild(epoch.Add(48 * time.Hour))
	if m.WindowSize() != 1 || m.StagedSize() != 0 {
		t.Fatalf("after the rebuild: window %d, staged %d; want 1, 0", m.WindowSize(), m.StagedSize())
	}
	m.Observe(mkSession(47, "/late", "/x"))
	m.Observe(mkSession(40, "/early"))
	want := [][]string{{"/late", "/x"}, {"/early"}}
	if got := spanSeqs(m.takeStaged()); !reflect.DeepEqual(got, want) {
		t.Errorf("staged batch %v, want %v", got, want)
	}
	if m.StagedSize() != 0 || m.WindowSize() != 3 {
		t.Errorf("after the take: staged %d, window %d; want 0, 3", m.StagedSize(), m.WindowSize())
	}
}

func TestStagingBufferBound(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	// Six sessions, then DefaultMaxStaged one-page sessions behind them,
	// each on a page of its own so the six keep their popularity grades.
	const total = DefaultMaxStaged + 6
	for i := 0; i < 6; i++ {
		m.Observe(mkSession(i, fmt.Sprintf("/s%d", i), "/x"))
	}
	for i := 6; i < total; i++ {
		m.Observe(mkSession(9, fmt.Sprintf("/b%d", i)))
	}
	if m.StagedSize() != DefaultMaxStaged {
		t.Errorf("StagedSize = %d, want %d (bound)", m.StagedSize(), DefaultMaxStaged)
	}
	if m.WindowSize() != total {
		t.Errorf("WindowSize = %d, want %d (window keeps what staging drops)", m.WindowSize(), total)
	}
	if v := m.metrics.stagedDropped.Value(); v != 6 {
		t.Errorf("stagedDropped = %d, want 6", v)
	}
	// The delta merge sees only the newest DefaultMaxStaged; the
	// compaction recovers all.
	m.Rebuild(epoch.Add(20 * time.Hour))
	model := m.Predictor()
	if got := model.Predict([]string{"/s0"}); len(got) == 0 {
		t.Error("compaction lost a session dropped from staging")
	}
}

// TestIncrementalMaintenanceRaceStress drives Observe and Predict
// concurrently with delta merges and compactions; run under -race this
// checks the published-snapshot discipline of the incremental path.
func TestIncrementalMaintenanceRaceStress(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Observe(mkSession(i, "/home", "/news", "/news/today"))
	}
	m.Rebuild(epoch.Add(time.Hour))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Observe(mkSession(g*1000+i, "/home", fmt.Sprintf("/p%d", i%32)))
				if p := m.Predictor(); p != nil {
					p.Predict([]string{"/home", "/news"})
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		// Stage at least one session ourselves: the observer goroutines may
		// not have been scheduled yet and an empty batch is a no-op.
		m.Observe(mkSession(9000+i, "/home", "/driver"))
		m.DeltaMerge(epoch.Add(time.Duration(5000+i) * time.Hour))
		if i%4 == 3 {
			m.Rebuild(epoch.Add(time.Duration(5000+i) * time.Hour))
		}
	}
	close(stop)
	wg.Wait()
	if m.DeltaMerges() == 0 {
		t.Error("stress run performed no delta merges")
	}
	if m.Predictor() == nil {
		t.Error("no model published after stress run")
	}
}

// TestRunIncrementalSchedulesBothPaths checks the delta/compaction
// scheduling loop end to end, including OnPublish delivery.
func TestRunIncrementalSchedulesBothPaths(t *testing.T) {
	var publishMu sync.Mutex
	published := 0
	m, err := New(Config{
		Factory: pbFactory,
		OnPublish: func(p markov.Predictor) {
			publishMu.Lock()
			published++
			publishMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	observe := func(urls ...string) {
		s := session.Session{Client: "c"}
		for i, u := range urls {
			s.Views = append(s.Views, session.PageView{URL: u, Time: now.Add(time.Duration(i) * time.Second)})
		}
		m.Observe(s)
	}
	observe("/a", "/b")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		m.Run(3*time.Millisecond, 40*time.Millisecond, stop)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for m.DeltaMerges() < 2 || m.Rebuilds() < 2 {
		select {
		case <-deadline:
			t.Fatalf("loop stalled: deltas=%d rebuilds=%d", m.DeltaMerges(), m.Rebuilds())
		default:
			observe("/a", "/c") // keep staging non-empty so deltas publish
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	publishMu.Lock()
	defer publishMu.Unlock()
	if published < 4 {
		t.Errorf("OnPublish fired %d times, want >= 4", published)
	}
}
