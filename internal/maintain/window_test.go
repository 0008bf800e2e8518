package maintain

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"pbppm/internal/session"
)

// TestWindowBytesPerSession budgets what the window keeps of one
// observed session: 20,000 five-click sessions over 500 URLs the caller
// already holds, and the live heap may grow by at most 64 bytes a
// session. The columns take 12 bytes a session plus 4 a click (32 here)
// before append slack; a record and a URL slice of its own per session
// took 136.
func TestWindowBytesPerSession(t *testing.T) {
	const sessions, clicks, distinct = 20000, 5, 500
	urls := make([]string, distinct)
	for i := range urls {
		urls[i] = fmt.Sprintf("/dir%d/page%d.html", i%7, i)
	}
	s := session.Session{Client: "c", Views: make([]session.PageView, clicks)}
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		for j := range s.Views {
			s.Views[j] = session.PageView{
				URL:  urls[(i*clicks+j*7)%distinct],
				Time: epoch.Add(time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond),
			}
		}
		m.Observe(s)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if m.WindowSize() != sessions {
		t.Fatalf("WindowSize = %d, want %d", m.WindowSize(), sessions)
	}
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("the window keeps %d bytes per session", perSession)
	if perSession > 64 {
		t.Fatalf("the window keeps %d bytes per session, budget 64", perSession)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(urls)
}

// TestObserveAllocatesNothing checks that once the window's columns
// have grown, observing a session whose URLs the window already holds
// allocates nothing: no copy of its URLs, no record of its own.
func TestObserveAllocatesNothing(t *testing.T) {
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the columns, then trim all but the last session; the columns
	// keep their capacity and the table its URLs.
	s := mkSession(0, "/home", "/news", "/news/today", "/sports")
	for i := 0; i < 1000; i++ {
		m.Observe(s)
	}
	fresh := mkSession(30, "/home", "/news", "/news/today", "/sports")
	m.Observe(fresh)
	m.Rebuild(epoch.Add(40 * time.Hour))
	if m.WindowSize() != 1 {
		t.Fatalf("WindowSize = %d after the trim, want 1", m.WindowSize())
	}
	if allocs := testing.AllocsPerRun(500, func() { m.Observe(fresh) }); allocs != 0 {
		t.Errorf("Observe made %v allocations a session, want 0", allocs)
	}
}

// TestWindowTableForgetsExpiredURLs checks that the URL table follows
// the window as a site's URLs change: once the sessions naming a set of
// URLs expire and fewer than half the table's URLs are named, a
// rebuild leaves only the URLs still named, and the kept sessions
// still read their own URLs.
func TestWindowTableForgetsExpiredURLs(t *testing.T) {
	m, err := New(Config{Factory: pbFactory, Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	setA := []string{"/a0", "/a1", "/a2", "/a3", "/a4", "/a5", "/a6", "/a7"}
	setB := []string{"/b0", "/b1", "/b2"}
	for i := 0; i < 4; i++ {
		m.Observe(mkSession(i, setA[2*i], setA[2*i+1], "/b0"))
	}
	m.Observe(mkSession(30, "/b0", "/b1"))
	m.Observe(mkSession(31, "/b2", "/b0"))
	m.Rebuild(epoch.Add(40 * time.Hour)) // cutoff at hour 16: only set B stays named

	got := slices.Clone(m.win.urls)
	slices.Sort(got)
	if !reflect.DeepEqual(got, setB) {
		t.Errorf("table holds %v, want %v", got, setB)
	}
	if len(m.win.index) != len(setB) {
		t.Errorf("index holds %d URLs, want %d", len(m.win.index), len(setB))
	}
	for id, u := range m.win.urls {
		if m.win.index[u] != uint32(id) {
			t.Errorf("index[%s] = %d, want %d", u, m.win.index[u], id)
		}
	}
	want := [][]string{{"/b0", "/b1"}, {"/b2", "/b0"}}
	if got := spanSeqs(m.win.tail(m.WindowSize())); !reflect.DeepEqual(got, want) {
		t.Errorf("kept sessions read %v, want %v", got, want)
	}
	if rank := m.Ranking(); rank.Len() != len(setB) || rank.Count("/b0") != 2 {
		t.Errorf("ranking holds %d URLs, /b0 counted %d; want %d and 2", rank.Len(), rank.Count("/b0"), len(setB))
	}

	// Over many generations of URLs the table stays within twice the
	// URLs the window names.
	const named = 11 // each generation's URLs
	for gen := 0; gen < 20; gen++ {
		hour := 100 + 48*gen
		for i := 0; i < 10; i++ {
			m.Observe(mkSession(hour, fmt.Sprintf("/gen%d/%d", gen, i), fmt.Sprintf("/gen%d/%d", gen, i+1)))
		}
		m.Rebuild(epoch.Add(time.Duration(hour+1) * time.Hour))
		if len(m.win.urls) > 2*named {
			t.Fatalf("generation %d: table holds %d URLs, the window names %d", gen, len(m.win.urls), named)
		}
	}
}

// TestWindowTrimsOutOfRangeStarts checks that sessions starting where
// Unix nanoseconds cannot reach trim as their times say: one at the
// zero time or in 1500 is trimmed at the next rebuild, and one in 2500
// is kept. Without saturating, 1500 wraps to a time in 2084 and 2500
// to one before 1970.
func TestWindowTrimsOutOfRangeStarts(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	at := func(tm time.Time, urls ...string) session.Session {
		s := session.Session{Client: "c"}
		for _, u := range urls {
			s.Views = append(s.Views, session.PageView{URL: u, Time: tm})
		}
		return s
	}
	m.Observe(at(time.Time{}, "/zero", "/time"))
	m.Observe(at(time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), "/year1500", "/gone"))
	m.Observe(at(time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC), "/year2500", "/kept"))
	m.Observe(mkSession(0, "/home", "/news"))
	model := m.Rebuild(epoch.Add(time.Hour))
	if m.WindowSize() != 2 {
		t.Errorf("WindowSize = %d, want 2", m.WindowSize())
	}
	for _, ctx := range []string{"/zero", "/year1500"} {
		if got := model.Predict([]string{ctx}); len(got) != 0 {
			t.Errorf("session at %s survived the trim: %+v", ctx, got)
		}
	}
	if got := model.Predict([]string{"/year2500"}); len(got) == 0 {
		t.Error("session starting after the cutoff, in 2500, was trimmed")
	}
}
