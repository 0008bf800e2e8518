package server

import (
	"strings"

	"pbppm/internal/quality"
)

// The hint protocol is one-directional: the server pushes hints, the
// client fetches them, and hits the client serves from its own cache
// never reach the server. X-Prefetch-Report closes that loop: a
// cooperating client batches its local hit outcomes and attaches them
// to its next request (or a report-only beacon), so the server can
// score its predictions against the client's actual next navigation —
// the data behind the pbppm_live_* gauges.
const (
	// HeaderPrefetchReport carries batched client-side hit outcomes:
	// "url;h=p, url2;h=c" — h=p for a hit served by a prefetched copy,
	// h=c for an ordinary cache hit. URLs are percent-escaped exactly
	// like X-Prefetch hints.
	HeaderPrefetchReport = "X-Prefetch-Report"
	// HeaderPrefetchReportOnly marks a request as a pure report beacon:
	// the server ingests the report and answers 204 No Content without
	// touching the content store or demand statistics.
	HeaderPrefetchReportOnly = "X-Prefetch-Report-Only"
)

// ReportEntry is one client-side hit outcome. Outcome is CacheHit or
// PrefetchHit; misses reach the server as ordinary demand requests and
// are never reported.
type ReportEntry struct {
	URL     string
	Outcome quality.Outcome
}

// FormatReport renders the X-Prefetch-Report header value.
func FormatReport(entries []ReportEntry) string {
	if len(entries) == 0 {
		return ""
	}
	var b strings.Builder
	n := 0
	for _, e := range entries {
		n += len(e.URL) + len(", ;h=c")
	}
	b.Grow(n)
	for i, e := range entries {
		if i > 0 {
			b.WriteString(", ")
		}
		writeHintURL(&b, e.URL)
		if e.Outcome == quality.PrefetchHit {
			b.WriteString(";h=p")
		} else {
			b.WriteString(";h=c")
		}
	}
	return b.String()
}

// ParseReport inverts FormatReport; malformed elements are skipped.
func ParseReport(header string) []ReportEntry {
	if header == "" {
		return nil
	}
	var out []ReportEntry
	headerElems(header, func(elem string) {
		url, rest, found := strings.Cut(elem, ";")
		if !found {
			return
		}
		var outcome quality.Outcome
		switch strings.TrimSpace(rest) {
		case "h=p":
			outcome = quality.PrefetchHit
		case "h=c":
			outcome = quality.CacheHit
		default:
			return
		}
		u := unescapeHintURL(strings.TrimSpace(url))
		if u == "" {
			return
		}
		if out == nil {
			out = make([]ReportEntry, 0, strings.Count(header, ",")+1)
		}
		out = append(out, ReportEntry{URL: u, Outcome: outcome})
	})
	return out
}
