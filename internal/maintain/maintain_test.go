package maintain

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
)

var epoch = time.Date(1995, 7, 1, 0, 0, 0, 0, time.UTC)

func mkSession(startHour int, urls ...string) session.Session {
	s := session.Session{Client: "c"}
	for i, u := range urls {
		s.Views = append(s.Views, session.PageView{
			URL:  u,
			Time: epoch.Add(time.Duration(startHour)*time.Hour + time.Duration(i)*time.Minute),
		})
	}
	return s
}

func pbFactory(rank *popularity.Ranking) markov.Predictor {
	return core.New(rank, core.Config{RelProbCutoff: 0.01})
}

func TestNewRequiresFactory(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestRebuildTrainsOnWindow(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predictor() != nil {
		t.Error("predictor before first rebuild")
	}
	for i := 0; i < 5; i++ {
		m.Observe(mkSession(i, "/home", "/news"))
	}
	m.Observe(session.Session{}) // empty: ignored
	if m.WindowSize() != 5 {
		t.Fatalf("window = %d", m.WindowSize())
	}

	model := m.Rebuild(epoch.Add(12 * time.Hour))
	if model == nil || m.Predictor() != model {
		t.Fatal("rebuild did not install the model")
	}
	ps := model.Predict([]string{"/home"})
	if len(ps) == 0 || ps[0].URL != "/news" {
		t.Errorf("rebuilt model Predict = %+v", ps)
	}
	if m.Rebuilds() != 1 {
		t.Errorf("Rebuilds = %d", m.Rebuilds())
	}
}

func TestWindowTrimming(t *testing.T) {
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/old", "/older"))
	m.Observe(mkSession(30, "/fresh", "/new"))
	model := m.Rebuild(epoch.Add(40 * time.Hour)) // cutoff at hour 16

	if m.WindowSize() != 1 {
		t.Errorf("window after trim = %d", m.WindowSize())
	}
	if got := model.Predict([]string{"/old"}); len(got) != 0 {
		t.Errorf("expired session still predicted: %+v", got)
	}
	if got := model.Predict([]string{"/fresh"}); len(got) == 0 {
		t.Error("fresh session not learned")
	}
}

func TestWindowTrimmingOutOfOrder(t *testing.T) {
	// Regression: the old prefix-scan trim stopped at the first fresh
	// session, so an expired session observed after a fresh one survived
	// the trim and kept training rebuilt models forever.
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(30, "/fresh", "/new"))
	m.Observe(mkSession(0, "/old", "/older")) // out of order: older arrives later
	m.Observe(mkSession(32, "/fresh2", "/new2"))
	model := m.Rebuild(epoch.Add(40 * time.Hour)) // cutoff at hour 16

	if m.WindowSize() != 2 {
		t.Errorf("window after trim = %d, want 2", m.WindowSize())
	}
	if got := model.Predict([]string{"/old"}); len(got) != 0 {
		t.Errorf("expired out-of-order session still predicted: %+v", got)
	}
	if got := model.Predict([]string{"/fresh"}); len(got) == 0 {
		t.Error("fresh session observed before the stale one was lost")
	}
	if got := model.Predict([]string{"/fresh2"}); len(got) == 0 {
		t.Error("fresh session observed after the stale one was lost")
	}
}

func TestRebuildDetachesUsageRecording(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/home", "/news"))
	model := m.Rebuild(epoch.Add(time.Hour))
	// The maintainer publishes the frozen arena snapshot, detached from
	// the live model it keeps for delta merges.
	if _, ok := model.(markov.ArenaHolder); !ok {
		t.Fatal("published PB-PPM model is not an arena-backed frozen snapshot")
	}
	if model == m.editable {
		t.Fatal("published the live model itself")
	}
	if len(model.Predict([]string{"/home"})) == 0 {
		t.Fatal("published model predicts nothing")
	}
}

func TestPopularityTracksWindow(t *testing.T) {
	m, err := New(Config{Factory: func(rank *popularity.Ranking) markov.Predictor {
		// Capture the ranking the factory received via closure check.
		if rank.Count("/hot") == 0 {
			panic("factory saw empty ranking")
		}
		return pbFactory(rank)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Observe(mkSession(i, "/hot"))
	}
	m.Rebuild(epoch.Add(6 * time.Hour))
}

func TestConcurrentObserveAndRebuild(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	// Seed one session so a rebuild racing ahead of the observers never
	// sees an empty window (an empty window after the first publish is
	// skipped, not republished).
	m.Observe(mkSession(0, "/seed", "/page"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Observe(mkSession(g*200+i, "/home", "/news"))
				if i%50 == 0 {
					m.Predictor() // concurrent read
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Rebuild with the cutoff before every observed session so the
			// window never trims to empty (which would skip the publish).
			m.Rebuild(epoch.Add(24 * time.Hour))
		}
	}()
	wg.Wait()
	if m.Rebuilds() != 10 {
		t.Errorf("Rebuilds = %d", m.Rebuilds())
	}
	if m.Predictor() == nil {
		t.Error("no model installed")
	}
}

// TestConcurrentPredictOnSharedModel exercises the contract the
// maintainer documents: many goroutines predicting through Predictor()
// while rebuilds swap the snapshot underneath them. Before the serving
// path became read-only this raced on the tree's usage marks; run with
// -race to verify.
func TestConcurrentPredictOnSharedModel(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Observe(mkSession(i, "/home", "/news", "/news/today"))
	}
	m.Rebuild(epoch.Add(time.Hour))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if p := m.Predictor(); p != nil {
					p.Predict([]string{"/home", "/news"})
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			m.Observe(mkSession(100+i, "/home", "/news"))
			m.Rebuild(epoch.Add(200 * time.Hour))
		}
	}()
	wg.Wait()
	if m.Predictor() == nil {
		t.Fatal("no model published")
	}
}

func TestRunLoop(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	// Run rebuilds against the wall clock, so the session must sit inside
	// today's window for the rebuilds to publish rather than skip.
	s := session.Session{Client: "c"}
	now := time.Now()
	for i, u := range []string{"/a", "/b"} {
		s.Views = append(s.Views, session.PageView{URL: u, Time: now.Add(time.Duration(i) * time.Minute)})
	}
	m.Observe(s)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		m.Run(0, 5*time.Millisecond, stop)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for m.Rebuilds() < 2 {
		select {
		case <-deadline:
			t.Fatal("Run performed no rebuilds")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
}

// TestPublishAnnotationsAndRanking: every successful publish drops a
// timeline marker (compaction vs delta-merge) and compactions refresh
// the window ranking exposed through Ranking for live-event grading.
func TestPublishAnnotationsAndRanking(t *testing.T) {
	ann := obs.NewAnnotations()
	m, err := New(Config{Factory: pbFactory, Annotations: ann})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranking() != nil {
		t.Error("ranking before first compaction")
	}

	m.Observe(mkSession(0, "/home", "/news"))
	m.Observe(mkSession(1, "/home", "/sports"))
	m.Rebuild(epoch.Add(2 * time.Hour))

	rank := m.Ranking()
	if rank == nil {
		t.Fatal("no ranking after compaction")
	}
	if got := rank.Count("/home"); got != 2 {
		t.Errorf("ranking Count(/home) = %d, want 2", got)
	}

	m.Observe(mkSession(3, "/home", "/news"))
	m.DeltaMerge(epoch.Add(4 * time.Hour))
	if m.Ranking() != rank {
		t.Error("delta merge replaced the compaction ranking")
	}

	recent := ann.Recent() // newest first
	if len(recent) != 2 {
		t.Fatalf("annotations = %+v, want compaction then delta_merge", recent)
	}
	if recent[0].Kind != "delta_merge" || recent[1].Kind != "compaction" {
		t.Errorf("annotation kinds = %q, %q", recent[0].Kind, recent[1].Kind)
	}
	for _, a := range recent {
		if !strings.Contains(a.Detail, "model=PB-PPM") || !strings.Contains(a.Detail, "nodes=") {
			t.Errorf("annotation detail %q missing model/nodes", a.Detail)
		}
	}

	// A skipped update leaves no marker.
	m.Rebuild(epoch.Add(100000 * time.Hour)) // trims the whole window: skipped
	if got := len(ann.Recent()); got != 2 {
		t.Errorf("skipped rebuild added a marker: %d annotations", got)
	}
}

// Subscribe fans every published snapshot out to all subscribers (a
// cluster wires each shard's SetPredictor here), delivers the current
// snapshot immediately to late subscribers, and keeps OnPublish-before-
// subscriber ordering on each publish.
func TestSubscribeFanOut(t *testing.T) {
	var order []string
	m, err := New(Config{
		Factory:   pbFactory,
		OnPublish: func(markov.Predictor) { order = append(order, "onpublish") },
	})
	if err != nil {
		t.Fatal(err)
	}
	var aGot, bGot []markov.Predictor
	m.Subscribe(func(p markov.Predictor) { order = append(order, "a"); aGot = append(aGot, p) })
	if len(aGot) != 0 {
		t.Fatal("subscriber called before any publish")
	}

	for i := 0; i < 3; i++ {
		m.Observe(mkSession(i, "/home", "/news"))
	}
	model := m.Rebuild(epoch.Add(6 * time.Hour))
	if len(aGot) != 1 || aGot[0] != model {
		t.Fatalf("subscriber a got %d snapshots, want the published one", len(aGot))
	}
	if want := []string{"onpublish", "a"}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("delivery order = %v, want %v", order, want)
	}

	// Late subscriber catches up on the current snapshot immediately.
	m.Subscribe(func(p markov.Predictor) { bGot = append(bGot, p) })
	if len(bGot) != 1 || bGot[0] != model {
		t.Fatalf("late subscriber got %v, want immediate catch-up", bGot)
	}

	// Next publish reaches both.
	m.Observe(mkSession(8, "/home", "/sports"))
	next := m.Rebuild(epoch.Add(12 * time.Hour))
	if len(aGot) != 2 || aGot[1] != next || len(bGot) != 2 || bGot[1] != next {
		t.Errorf("fan-out after second publish: a=%d b=%d snapshots", len(aGot), len(bGot))
	}
}

// arenaImage returns the published model's frozen arena bytes.
func arenaImage(t *testing.T, p markov.Predictor) []byte {
	t.Helper()
	ah, ok := p.(markov.ArenaHolder)
	if !ok || ah.Arena() == nil {
		t.Fatalf("published model %T is not arena-backed", p)
	}
	return ah.Arena().Bytes()
}

// TestObserveOwnsItsCopy checks the window keeps its own copy of each
// session's URLs, and that training never writes them: rewriting the
// caller's views after Observe does not change the next Rebuild, and
// two back-to-back Rebuilds over an unchanged window freeze
// byte-identical arenas (Freeze is canonical).
func TestObserveOwnsItsCopy(t *testing.T) {
	seqs := [][]string{
		{"/home", "/news", "/news/today"},
		{"/home", "/news", "/sports"},
		{"/home", "/about"},
		{"/news", "/news/today"},
	}
	build := func(mutate bool) (*Maintainer, markov.Predictor) {
		m, err := New(Config{Factory: pbFactory})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			s := mkSession(i%24, seqs[i%len(seqs)]...)
			m.Observe(s)
			if mutate {
				for j := range s.Views {
					s.Views[j].URL = "/rewritten"
				}
			}
		}
		return m, m.Rebuild(epoch.Add(30 * time.Hour))
	}
	_, clean := build(false)
	m, mutated := build(true)
	want := arenaImage(t, clean)
	if got := arenaImage(t, mutated); string(got) != string(want) {
		t.Fatal("rewriting the caller's views after Observe changed the rebuilt model")
	}
	again := m.Rebuild(epoch.Add(30 * time.Hour))
	if got := arenaImage(t, again); string(got) != string(want) {
		t.Fatal("a second Rebuild over the same window froze a different arena: training wrote the stored URLs")
	}
}
