// Package session turns raw access-log streams into per-client access
// sessions, the unit the prediction models are trained on.
//
// Following §1 and §2.2 of the paper: a session is a sequence of URLs
// continuously visited by one client, split when the client is idle for
// more than 30 minutes; image files requested within 10 seconds of an
// HTML file by the same client are folded into that HTML page view; and
// a client address is classified as a proxy when it issues more than a
// threshold number of requests in a day (browsers otherwise).
package session

import (
	"slices"
	"strings"
	"time"

	"pbppm/internal/trace"
)

// DefaultIdleTimeout is the paper's 30-minute session-splitting gap.
const DefaultIdleTimeout = 30 * time.Minute

// DefaultEmbedWindow is the paper's 10-second embedded-image window.
const DefaultEmbedWindow = 10 * time.Second

// DefaultProxyThreshold is the requests-per-day count above which an
// address is considered a proxy rather than a browser. (The paper's
// text reads "more than 1 per day" with a typeset digit lost; 100 is
// the conventional value and the one that separates the two populations
// in these traces.)
const DefaultProxyThreshold = 100

// Embedded is an image object folded into a page view.
type Embedded struct {
	URL   string
	Bytes int64
}

// PageView is one user click: a document plus the images embedded in it.
type PageView struct {
	URL   string
	Time  time.Time
	Bytes int64
	// Embedded lists image objects attached to this view by the
	// 10-second rule. Their bytes count toward the page's transfer
	// size but they are not independent prediction targets.
	Embedded []Embedded
}

// TotalBytes returns the page bytes plus all embedded object bytes.
func (v PageView) TotalBytes() int64 {
	n := v.Bytes
	for _, e := range v.Embedded {
		n += e.Bytes
	}
	return n
}

// Session is a maximal run of page views by one client with no idle gap
// exceeding the configured timeout.
type Session struct {
	Client string
	Views  []PageView
}

// Start returns the time of the first view; the zero time for an empty
// session.
func (s Session) Start() time.Time {
	if len(s.Views) == 0 {
		return time.Time{}
	}
	return s.Views[0].Time
}

// URLs returns the clicked URL sequence of the session.
func (s Session) URLs() []string {
	out := make([]string, len(s.Views))
	for i, v := range s.Views {
		out[i] = v.URL
	}
	return out
}

// Len returns the number of clicks (page views) in the session.
func (s Session) Len() int { return len(s.Views) }

// Config controls sessionization.
type Config struct {
	// IdleTimeout splits sessions; zero means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// EmbedWindow folds images into the preceding HTML view; zero means
	// DefaultEmbedWindow. Negative disables folding entirely.
	EmbedWindow time.Duration
	// KeepStatuses limits which response codes contribute. Nil means
	// the default {200, 304}: successful and not-modified responses
	// both represent real user accesses.
	KeepStatuses map[int]bool
}

func (c Config) idle() time.Duration {
	if c.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	return c.IdleTimeout
}

func (c Config) embed() time.Duration {
	if c.EmbedWindow == 0 {
		return DefaultEmbedWindow
	}
	return c.EmbedWindow
}

func (c Config) keep(status int) bool {
	if c.KeepStatuses == nil {
		return status == 200 || status == 304
	}
	return c.KeepStatuses[status]
}

// Sessionize converts a time-ordered trace into sessions. Sessions are
// returned sorted by start time (ties broken by client) so downstream
// processing is deterministic. Records with filtered-out statuses are
// dropped; image records are folded into the closest preceding HTML
// view of the same client within the embed window.
//
// It reads the trace twice. The first pass decides each record's fate
// (dropped, a view of some session, or an image folded into an earlier
// view) and counts each session's views and each view's images. The
// second fills one []PageView and one []Embedded, each allocated at its
// exact total, from which every session's Views and every view's
// Embedded are cut at full capacity.
func Sessionize(tr *trace.Trace, cfg Config) []Session {
	recs := tr.Records
	idle, embed := cfg.idle(), cfg.embed()
	type clientState struct {
		session  int32 // index of the open session in sessions, or -1
		view     int32 // id of the open session's last view
		lastTime time.Time
		lastHTML time.Time // time of last HTML view, for folding
	}
	ids := make(map[string]int32)
	var clients []clientState
	// Sessions are listed as they open. In a trace in Trace.Sort's
	// order that is already start-then-client order, and the sort
	// below only checks it.
	var sessions []Session
	var perSession []int32 // views of each session
	// Views are numbered as they open. perView[v] holds view v's
	// session, then its slot in the one []PageView, and its images.
	type viewInfo struct{ at, images int32 }
	perView := make([]viewInfo, 0, len(recs))
	// fate[i] is dropped, isView, or the id of the view record i's
	// image folds into.
	const dropped, isView = -1, -2
	fate := make([]int32, len(recs))
	folded := 0

	for i := range recs {
		r := &recs[i]
		if !cfg.keep(r.Status) {
			fate[i] = dropped
			continue
		}
		c, ok := ids[r.Client]
		if !ok {
			c = int32(len(clients))
			ids[r.Client] = c
			clients = append(clients, clientState{session: -1})
		}
		st := &clients[c]
		if st.session >= 0 && r.Time.Sub(st.lastTime) > idle {
			st.session = -1
		}
		if st.session < 0 {
			st.session = int32(len(sessions))
			sessions = append(sessions, Session{Client: r.Client})
			perSession = append(perSession, 0)
			st.lastHTML = time.Time{}
		}
		st.lastTime = r.Time

		// lastHTML is zero until the open session has a view, so a
		// fold always finds st.view in this session.
		kind := r.Kind()
		if kind == trace.KindImage && cfg.EmbedWindow >= 0 &&
			!st.lastHTML.IsZero() && r.Time.Sub(st.lastHTML) <= embed {
			fate[i] = st.view
			perView[st.view].images++
			folded++
			continue
		}

		fate[i] = isView
		st.view = int32(len(perView))
		perView = append(perView, viewInfo{at: st.session})
		perSession[st.session]++
		if kind == trace.KindHTML {
			st.lastHTML = r.Time
		} else {
			// A non-HTML click resets the folding anchor: subsequent
			// images are no longer embedded in an earlier page.
			st.lastHTML = time.Time{}
		}
	}

	// Lay the sessions' views out one after another; perSession[s]
	// becomes session s's next free slot.
	views := make([]PageView, len(perView))
	next := int32(0)
	for s, n := range perSession {
		sessions[s].Views = views[next : next+n : next+n]
		perSession[s] = next
		next += n
	}

	// Images are laid out in view-id order, the order views open in.
	embedded := make([]Embedded, folded)
	v, e := 0, int32(0)
	for i, f := range fate {
		r := &recs[i]
		switch {
		case f == isView:
			s := perView[v].at
			perView[v].at = perSession[s]
			perSession[s]++
			pv := &views[perView[v].at]
			pv.URL, pv.Time, pv.Bytes = r.URL, r.Time, r.Bytes
			if n := perView[v].images; n > 0 {
				pv.Embedded = embedded[e : e : e+n]
				e += n
			}
			v++
		case f >= 0:
			pv := &views[perView[f].at]
			pv.Embedded = append(pv.Embedded, Embedded{URL: r.URL, Bytes: r.Bytes})
		}
	}
	if !slices.IsSortedFunc(sessions, compareSessions) {
		slices.SortStableFunc(sessions, compareSessions)
	}
	return sessions
}

// compareSessions orders sessions by start instant, then client.
func compareSessions(a, b Session) int {
	if c := a.Start().Compare(b.Start()); c != 0 {
		return c
	}
	return strings.Compare(a.Client, b.Client)
}

// ClientClass distinguishes proxies from browsers.
type ClientClass int

const (
	// Browser is an end-user client with a small (1 MB) cache.
	Browser ClientClass = iota
	// Proxy is an aggregating cache server with a large (16 GB) cache.
	Proxy
)

// String returns the class name.
func (c ClientClass) String() string {
	if c == Proxy {
		return "proxy"
	}
	return "browser"
}

// ClassifyClients applies the paper's heuristic: an address whose
// request count exceeds threshold on any single day is a proxy.
// threshold <= 0 selects DefaultProxyThreshold.
func ClassifyClients(tr *trace.Trace, threshold int) map[string]ClientClass {
	if threshold <= 0 {
		threshold = DefaultProxyThreshold
	}
	type key struct {
		client string
		day    int
	}
	daily := make(map[key]int)
	for _, r := range tr.Records {
		daily[key{r.Client, r.Day(tr.Epoch)}]++
	}
	out := make(map[string]ClientClass)
	for _, r := range tr.Records {
		if _, seen := out[r.Client]; !seen {
			out[r.Client] = Browser
		}
	}
	for k, n := range daily {
		if n > threshold {
			out[k.client] = Proxy
		}
	}
	return out
}

// Stats summarizes a session set; used for validating that synthetic
// traces obey the paper's observed regularities.
type Stats struct {
	Sessions    int
	TotalClicks int
	MeanLength  float64
	MaxLength   int
	// LengthAtMost9 is the fraction of sessions with <= 9 clicks; the
	// paper reports this above 95%.
	LengthAtMost9 float64
}

// Summarize computes aggregate statistics over sessions.
func Summarize(sessions []Session) Stats {
	var st Stats
	st.Sessions = len(sessions)
	short := 0
	for _, s := range sessions {
		n := s.Len()
		st.TotalClicks += n
		if n > st.MaxLength {
			st.MaxLength = n
		}
		if n <= 9 {
			short++
		}
	}
	if st.Sessions > 0 {
		st.MeanLength = float64(st.TotalClicks) / float64(st.Sessions)
		st.LengthAtMost9 = float64(short) / float64(st.Sessions)
	}
	return st
}
