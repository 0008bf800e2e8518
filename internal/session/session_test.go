package session

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

var epoch = time.Date(1995, 7, 1, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }

func rec(sec int, client, url string, bytes int64) trace.Record {
	return trace.Record{Client: client, Time: at(sec), Method: "GET", URL: url, Status: 200, Bytes: bytes}
}

func mktrace(recs ...trace.Record) *trace.Trace {
	tr := &trace.Trace{Epoch: epoch, Records: recs}
	tr.Sort()
	return tr
}

func TestSessionizeSingleSession(t *testing.T) {
	tr := mktrace(
		rec(0, "c", "/a.html", 100),
		rec(10, "c", "/b.html", 200),
		rec(20, "c", "/c.html", 300),
	)
	ss := Sessionize(tr, Config{})
	if len(ss) != 1 {
		t.Fatalf("got %d sessions, want 1", len(ss))
	}
	urls := ss[0].URLs()
	want := []string{"/a.html", "/b.html", "/c.html"}
	if len(urls) != 3 {
		t.Fatalf("urls = %v", urls)
	}
	for i := range want {
		if urls[i] != want[i] {
			t.Errorf("url[%d] = %s, want %s", i, urls[i], want[i])
		}
	}
	if ss[0].Client != "c" || !ss[0].Start().Equal(at(0)) || ss[0].Len() != 3 {
		t.Errorf("session meta = %+v", ss[0])
	}
}

func TestSessionizeIdleSplit(t *testing.T) {
	tr := mktrace(
		rec(0, "c", "/a.html", 1),
		rec(1800, "c", "/b.html", 1), // exactly 30 min: same session
		rec(3601, "c", "/c.html", 1), // 30m01s gap: new session
		rec(3602, "c", "/d.html", 1),
	)
	ss := Sessionize(tr, Config{})
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2: %+v", len(ss), ss)
	}
	if ss[0].Len() != 2 || ss[1].Len() != 2 {
		t.Errorf("session lengths = %d, %d, want 2, 2", ss[0].Len(), ss[1].Len())
	}
}

func TestSessionizeCustomIdle(t *testing.T) {
	tr := mktrace(
		rec(0, "c", "/a.html", 1),
		rec(61, "c", "/b.html", 1),
	)
	ss := Sessionize(tr, Config{IdleTimeout: time.Minute})
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
}

func TestSessionizePerClient(t *testing.T) {
	tr := mktrace(
		rec(0, "a", "/1.html", 1),
		rec(1, "b", "/2.html", 1),
		rec(2, "a", "/3.html", 1),
		rec(3, "b", "/4.html", 1),
	)
	ss := Sessionize(tr, Config{})
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
	// Sorted by start time: client a first.
	if ss[0].Client != "a" || ss[1].Client != "b" {
		t.Errorf("clients = %s, %s", ss[0].Client, ss[1].Client)
	}
	if ss[0].URLs()[1] != "/3.html" || ss[1].URLs()[1] != "/4.html" {
		t.Error("per-client interleaving broken")
	}
}

func TestEmbeddedFolding(t *testing.T) {
	tr := mktrace(
		rec(0, "c", "/page.html", 1000),
		rec(3, "c", "/img/a.gif", 50),
		rec(9, "c", "/img/b.jpg", 60),
		rec(12, "c", "/img/late.gif", 70), // 12s after HTML: its own view
	)
	ss := Sessionize(tr, Config{})
	if len(ss) != 1 {
		t.Fatalf("got %d sessions", len(ss))
	}
	views := ss[0].Views
	if len(views) != 2 {
		t.Fatalf("got %d views, want 2 (folded page + late image): %+v", len(views), views)
	}
	if len(views[0].Embedded) != 2 {
		t.Fatalf("embedded = %+v, want 2 objects", views[0].Embedded)
	}
	if views[0].TotalBytes() != 1000+50+60 {
		t.Errorf("TotalBytes = %d, want 1110", views[0].TotalBytes())
	}
	if views[1].URL != "/img/late.gif" {
		t.Errorf("second view = %s", views[1].URL)
	}
}

func TestEmbeddedFoldingAnchorReset(t *testing.T) {
	// An intervening non-HTML click breaks the folding anchor.
	tr := mktrace(
		rec(0, "c", "/page.html", 1000),
		rec(2, "c", "/download.zip", 5000),
		rec(4, "c", "/img/a.gif", 50),
	)
	ss := Sessionize(tr, Config{})
	if len(ss[0].Views) != 3 {
		t.Fatalf("views = %+v, want 3 (no folding across the zip)", ss[0].Views)
	}
}

func TestEmbeddedFoldingDisabled(t *testing.T) {
	tr := mktrace(
		rec(0, "c", "/page.html", 1000),
		rec(1, "c", "/img/a.gif", 50),
	)
	ss := Sessionize(tr, Config{EmbedWindow: -1})
	if len(ss[0].Views) != 2 {
		t.Fatalf("views = %d, want 2 with folding disabled", len(ss[0].Views))
	}
}

func TestStatusFiltering(t *testing.T) {
	r404 := rec(1, "c", "/missing.html", 0)
	r404.Status = 404
	r304 := rec(2, "c", "/cached.html", 0)
	r304.Status = 304
	tr := mktrace(rec(0, "c", "/a.html", 1), r404, r304)
	ss := Sessionize(tr, Config{})
	if len(ss) != 1 || ss[0].Len() != 2 {
		t.Fatalf("sessions = %+v, want one session of 2 views (404 dropped, 304 kept)", ss)
	}
	// Custom status set.
	ss = Sessionize(tr, Config{KeepStatuses: map[int]bool{200: true}})
	if ss[0].Len() != 1 {
		t.Errorf("custom status filter kept %d views, want 1", ss[0].Len())
	}
}

func TestSessionizeEmptyTrace(t *testing.T) {
	if got := Sessionize(&trace.Trace{Epoch: epoch}, Config{}); len(got) != 0 {
		t.Errorf("empty trace produced %d sessions", len(got))
	}
}

func TestClassifyClients(t *testing.T) {
	var recs []trace.Record
	// "heavy" makes 150 requests on day 0; "light" makes 5/day on two days.
	for i := 0; i < 150; i++ {
		recs = append(recs, rec(i, "heavy", "/x.html", 1))
	}
	for d := 0; d < 2; d++ {
		for i := 0; i < 5; i++ {
			recs = append(recs, rec(d*86400+i, "light", "/y.html", 1))
		}
	}
	tr := mktrace(recs...)
	classes := ClassifyClients(tr, 0)
	if classes["heavy"] != Proxy {
		t.Errorf("heavy = %v, want proxy", classes["heavy"])
	}
	if classes["light"] != Browser {
		t.Errorf("light = %v, want browser", classes["light"])
	}
	// Lower threshold flips the light client too.
	classes = ClassifyClients(tr, 4)
	if classes["light"] != Proxy {
		t.Errorf("light with threshold 4 = %v, want proxy", classes["light"])
	}
}

func TestClassString(t *testing.T) {
	if Browser.String() != "browser" || Proxy.String() != "proxy" {
		t.Error("ClientClass.String mismatch")
	}
}

func TestSummarize(t *testing.T) {
	mk := func(n int) Session {
		s := Session{Client: "c"}
		for i := 0; i < n; i++ {
			s.Views = append(s.Views, PageView{URL: "/x", Time: at(i)})
		}
		return s
	}
	st := Summarize([]Session{mk(1), mk(3), mk(12)})
	if st.Sessions != 3 || st.TotalClicks != 16 || st.MaxLength != 12 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanLength < 5.3 || st.MeanLength > 5.4 {
		t.Errorf("mean = %v", st.MeanLength)
	}
	if st.LengthAtMost9 < 0.66 || st.LengthAtMost9 > 0.67 {
		t.Errorf("LengthAtMost9 = %v", st.LengthAtMost9)
	}
	if got := Summarize(nil); got.Sessions != 0 || got.MeanLength != 0 {
		t.Errorf("empty summarize = %+v", got)
	}
}

func TestSessionStartEmpty(t *testing.T) {
	var s Session
	if !s.Start().IsZero() {
		t.Error("empty session Start not zero")
	}
}

// Property: no session contains an inter-view gap exceeding the idle
// timeout, across random traces.
func TestNoIntraSessionGapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var recs []trace.Record
	clients := []string{"a", "b", "c"}
	tm := 0
	for i := 0; i < 2000; i++ {
		tm += rng.Intn(2400) // gaps up to 40 min
		recs = append(recs, rec(tm, clients[rng.Intn(len(clients))],
			"/p"+string(rune('a'+rng.Intn(20)))+".html", 1))
	}
	tr := mktrace(recs...)
	for _, s := range Sessionize(tr, Config{}) {
		for i := 1; i < len(s.Views); i++ {
			if gap := s.Views[i].Time.Sub(s.Views[i-1].Time); gap > DefaultIdleTimeout {
				t.Fatalf("session %s contains a %v gap", s.Client, gap)
			}
		}
	}
}

// Property: sessionization conserves records — every kept record lands
// in exactly one session, as a view or an embedded object.
func TestSessionizeConservesRecordsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var recs []trace.Record
	tm := 0
	for i := 0; i < 1500; i++ {
		tm += rng.Intn(60)
		url := "/page" + string(rune('a'+rng.Intn(10))) + ".html"
		if rng.Intn(3) == 0 {
			url = "/img" + string(rune('a'+rng.Intn(10))) + ".gif"
		}
		recs = append(recs, rec(tm, "c"+string(rune('0'+rng.Intn(4))), url, 1))
	}
	tr := mktrace(recs...)
	views, embedded := 0, 0
	for _, s := range Sessionize(tr, Config{}) {
		views += len(s.Views)
		for _, v := range s.Views {
			embedded += len(v.Embedded)
		}
	}
	if views+embedded != len(recs) {
		t.Errorf("records %d != views %d + embedded %d", len(recs), views, embedded)
	}
}

// TestIdleSplitExactBoundary pins the paper's "idle for more than 30
// minutes" rule at exact equality: a gap of exactly the idle timeout
// stays in one session; one second more splits.
func TestIdleSplitExactBoundary(t *testing.T) {
	gap := int(DefaultIdleTimeout / time.Second)
	same := Sessionize(mktrace(
		rec(0, "c", "/a.html", 1),
		rec(gap, "c", "/b.html", 1),
	), Config{})
	if len(same) != 1 {
		t.Errorf("exact %v gap split the session: %d sessions", DefaultIdleTimeout, len(same))
	}
	split := Sessionize(mktrace(
		rec(0, "c", "/a.html", 1),
		rec(gap+1, "c", "/b.html", 1),
	), Config{})
	if len(split) != 2 {
		t.Errorf("gap of %v+1s did not split: %d sessions", DefaultIdleTimeout, len(split))
	}
}

// TestEmbedWindowExactBoundary pins the 10-second embedded-image rule
// at exact equality: an image exactly DefaultEmbedWindow after the HTML
// view folds into it; one second more is its own page view.
func TestEmbedWindowExactBoundary(t *testing.T) {
	win := int(DefaultEmbedWindow / time.Second)
	folded := Sessionize(mktrace(
		rec(0, "c", "/page.html", 1000),
		rec(win, "c", "/img/a.gif", 50),
	), Config{})
	if got := len(folded[0].Views); got != 1 {
		t.Errorf("image at exactly %v was not folded: %d views", DefaultEmbedWindow, got)
	}
	own := Sessionize(mktrace(
		rec(0, "c", "/page.html", 1000),
		rec(win+1, "c", "/img/a.gif", 50),
	), Config{})
	if got := len(own[0].Views); got != 2 {
		t.Errorf("image at %v+1s was folded: %d views", DefaultEmbedWindow, got)
	}
}

// oracleSortSessions is the order Sessionize must return: by start
// instant, then client, with equal sessions left in input order.
func oracleSortSessions(ss []Session) {
	sort.SliceStable(ss, func(i, j int) bool {
		si, sj := ss[i].Start(), ss[j].Start()
		if !si.Equal(sj) {
			return si.Before(sj)
		}
		return ss[i].Client < ss[j].Client
	})
}

// TestSessionizeOrderMatchesOracle gives many clients sessions that
// start at the same few instants, some written in another zone, and
// requires Sessionize's order to be the oracle's, both for a trace in
// Trace.Sort's order and for one in time order whose ties are in
// arrival order.
func TestSessionizeOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edt := time.FixedZone("EDT", -4*3600)
	var recs []trace.Record
	for c := 0; c < 80; c++ {
		client := "c" + strconv.Itoa(c)
		for _, start := range []int{3600 * rng.Intn(3), 4*3600 + 3600*rng.Intn(3)} {
			for v := 0; v < 1+rng.Intn(4); v++ {
				r := rec(start+60*v, client, "/p"+strconv.Itoa(rng.Intn(9))+".html", 1)
				if rng.Intn(2) == 0 {
					r.Time = r.Time.In(edt)
				}
				recs = append(recs, r)
			}
		}
	}
	arrival := slices.Clone(recs)
	rng.Shuffle(len(arrival), func(i, j int) { arrival[i], arrival[j] = arrival[j], arrival[i] })
	sort.SliceStable(arrival, func(i, j int) bool { return arrival[i].Time.Before(arrival[j].Time) })

	for _, c := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"sorted", mktrace(recs...)},
		{"arrival", &trace.Trace{Epoch: epoch, Records: arrival}},
	} {
		got := Sessionize(c.tr, Config{})
		if len(got) != 160 {
			t.Fatalf("%s: %d sessions, want 160", c.name, len(got))
		}
		want := slices.Clone(got)
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		oracleSortSessions(want)
		for i := range want {
			if &got[i].Views[0] != &want[i].Views[0] {
				t.Fatalf("%s: session %d is %s at %v, want %s at %v", c.name,
					i, got[i].Client, got[i].Start(), want[i].Client, want[i].Start())
			}
		}
	}
}

// oracleSessionize is the one-pass sessionizer Sessionize replaced: it
// appends each view to its session and each folded image to its view
// as the records arrive.
func oracleSessionize(tr *trace.Trace, cfg Config) []Session {
	type clientState struct {
		cur      int // index of the open session in sessions, or -1
		lastTime time.Time
		lastHTML time.Time // time of last HTML view, for folding
	}
	states := make(map[string]*clientState)
	var sessions []Session

	for _, r := range tr.Records {
		if !cfg.keep(r.Status) {
			continue
		}
		st := states[r.Client]
		if st == nil {
			st = &clientState{cur: -1}
			states[r.Client] = st
		}
		if st.cur >= 0 && r.Time.Sub(st.lastTime) > cfg.idle() {
			st.cur = -1
		}
		if st.cur < 0 {
			st.cur = len(sessions)
			sessions = append(sessions, Session{Client: r.Client})
			st.lastHTML = time.Time{}
		}
		st.lastTime = r.Time
		cur := &sessions[st.cur]

		kind := r.Kind()
		if kind == trace.KindImage && cfg.EmbedWindow >= 0 &&
			!st.lastHTML.IsZero() && r.Time.Sub(st.lastHTML) <= cfg.embed() &&
			len(cur.Views) > 0 {
			last := &cur.Views[len(cur.Views)-1]
			last.Embedded = append(last.Embedded, Embedded{URL: r.URL, Bytes: r.Bytes})
			continue
		}

		cur.Views = append(cur.Views, PageView{URL: r.URL, Time: r.Time, Bytes: r.Bytes})
		if kind == trace.KindHTML {
			st.lastHTML = r.Time
		} else {
			st.lastHTML = time.Time{}
		}
	}
	if !slices.IsSortedFunc(sessions, compareSessions) {
		slices.SortStableFunc(sessions, compareSessions)
	}
	return sessions
}

// randomTrace draws up to n records for many clients at tie-heavy
// times, with statuses 200, 304 and 404 and HTML, image and other
// URLs. Times step by up to maxStep seconds, so a large step crosses
// idle timeouts and a small one piles records onto one instant. A few
// records sit in another zone or at the zero time.
func randomTrace(rng *rand.Rand, n, clients, maxStep int) []trace.Record {
	urls := []string{
		"/p1.html", "/p2.HTM", "/d/", "/x/p3.shtml?q",
		"/i1.gif", "/i2.JPG", "/i3.xbm#f", "/d/i4.jpeg",
		"/a.zip", "/cgi-bin/s?x.gif", "/noext",
	}
	statuses := []int{200, 200, 200, 304, 404}
	edt := time.FixedZone("EDT", -4*3600)
	recs := make([]trace.Record, 0, n)
	sec := 0
	for i := rng.Intn(n + 1); i > 0; i-- {
		sec += rng.Intn(maxStep + 1)
		r := rec(sec, "c"+strconv.Itoa(rng.Intn(clients)), urls[rng.Intn(len(urls))], int64(rng.Intn(5000)))
		r.Status = statuses[rng.Intn(len(statuses))]
		switch rng.Intn(40) {
		case 0:
			r.Time = r.Time.In(edt)
		case 1:
			r.Time = time.Time{}
		}
		recs = append(recs, r)
	}
	return recs
}

// TestSessionizeMatchesOracleProperty requires Sessionize to return
// exactly what the one-pass oracle returns on seeded random traces,
// under the default rules and custom idle timeouts, embed windows
// (negative too) and status sets, for traces in Trace.Sort's order,
// in time order with ties in arrival order, and in arrival order. Every
// Views and Embedded it returns must also be cut at full capacity.
func TestSessionizeMatchesOracleProperty(t *testing.T) {
	configs := []Config{
		{},
		{IdleTimeout: 90 * time.Second, EmbedWindow: 3 * time.Second},
		{EmbedWindow: -1},
		{KeepStatuses: map[int]bool{200: true, 404: true}},
		{IdleTimeout: time.Second, EmbedWindow: time.Hour, KeepStatuses: map[int]bool{304: true}},
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 400; trial++ {
		recs := randomTrace(rng, 300, 1+rng.Intn(60), []int{0, 2, 20, 600, 4000}[rng.Intn(5)])
		arrival := slices.Clone(recs)
		sorted := mktrace(slices.Clone(recs)...)
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		for _, tr := range []*trace.Trace{
			sorted,
			{Epoch: epoch, Records: recs},
			{Epoch: epoch, Records: arrival},
		} {
			for ci, cfg := range configs {
				got, want := Sessionize(tr, cfg), oracleSessionize(tr, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, config %d: Sessionize differs from the oracle\ngot  %+v\nwant %+v", trial, ci, got, want)
				}
				for _, s := range got {
					if cap(s.Views) != len(s.Views) {
						t.Fatalf("trial %d, config %d: %s's Views has cap %d, len %d", trial, ci, s.Client, cap(s.Views), len(s.Views))
					}
					for _, v := range s.Views {
						if cap(v.Embedded) != len(v.Embedded) {
							t.Fatalf("trial %d, config %d: %s's Embedded has cap %d, len %d", trial, ci, v.URL, cap(v.Embedded), len(v.Embedded))
						}
					}
				}
			}
		}
	}
}

// BenchmarkSessionize cuts the 7-day NASA history prefetchd and
// perfbench build at boot into sessions.
func BenchmarkSessionize(b *testing.B) {
	p := tracegen.NASA()
	p.Days = 7
	tr, err := tracegen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessionsSink = Sessionize(tr, Config{})
	}
}

var sessionsSink []Session
