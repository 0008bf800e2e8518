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
func Sessionize(tr *trace.Trace, cfg Config) []Session {
	type clientState struct {
		cur      int // index of the open session in sessions, or -1
		lastTime time.Time
		lastHTML time.Time // time of last HTML view, for folding
	}
	states := make(map[string]*clientState)
	// Sessions are listed as they open. In a trace in Trace.Sort's
	// order that is already start-then-client order, and the sort
	// below only checks it.
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
			// A non-HTML click resets the folding anchor: subsequent
			// images are no longer embedded in an earlier page.
			st.lastHTML = time.Time{}
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
