package server

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/quality"
)

func TestHintRoundTripSpecialCharacters(t *testing.T) {
	urls := []string{
		"/plain",
		"/a,b",              // comma collides with the hint separator
		"/a;b",              // semicolon collides with the parameter separator
		"/a%2Cb",            // pre-escaped text must survive double-transport
		"/search?q=a,b;c d", // query with all three hazards
		"/100%",             // trailing bare percent
		"/sp ace",           // space
	}
	hints := make([]markov.Prediction, len(urls))
	for i, u := range urls {
		hints[i] = markov.Prediction{URL: u, Probability: 0.9 - float64(i)*0.1}
	}
	header := FormatHints(hints)
	got := ParseHints(header)
	if len(got) != len(urls) {
		t.Fatalf("round trip lost hints: %d -> %d (%q)", len(urls), len(got), header)
	}
	for i, u := range urls {
		if got[i].URL != u {
			t.Errorf("hint %d round-tripped %q -> %q (header %q)", i, u, got[i].URL, header)
		}
	}
}

func TestUnescapeHintURLTolerance(t *testing.T) {
	// Legacy unescaped headers and malformed triples must pass through.
	for in, want := range map[string]string{
		"/plain": "/plain",
		"/a%ZZb": "/a%ZZb", // bad hex kept literally
		"/a%2":   "/a%2",   // truncated triple
		"/a%":    "/a%",
		"/a%2Cb": "/a,b",
		"%3B%25": ";%",
	} {
		if got := unescapeHintURL(in); got != want {
			t.Errorf("unescapeHintURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapedHintHeaderIsCleanASCII(t *testing.T) {
	header := FormatHints([]markov.Prediction{{URL: "/ünïcode,path;x", Probability: 0.5}})
	for i := 0; i < len(header); i++ {
		if header[i] < ' ' || header[i] >= 0x7f {
			t.Fatalf("header byte %d (%q) not printable ASCII: %q", i, header[i], header)
		}
	}
	if strings.Count(header, ";") != 1 || strings.Count(header, ",") != 0 {
		t.Errorf("URL delimiters leaked into header: %q", header)
	}
}

// The header codec as it was before it wrote and scanned headers in one
// pass, kept as the reference the fuzzers hold the current one to.

func escapeHintURL(u string) string {
	needs := false
	for i := 0; i < len(u); i++ {
		if hintEscapeNeeded(u[i]) {
			needs = true
			break
		}
	}
	if !needs {
		return u
	}
	var b strings.Builder
	b.Grow(len(u) + 8)
	for i := 0; i < len(u); i++ {
		c := u[i]
		if hintEscapeNeeded(c) {
			b.WriteByte('%')
			b.WriteByte(upperhex[c>>4])
			b.WriteByte(upperhex[c&0xf])
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func refFormatHints(hints []markov.Prediction) string {
	parts := make([]string, len(hints))
	for i, h := range hints {
		parts[i] = fmt.Sprintf("%s;p=%.3f", escapeHintURL(h.URL), h.Probability)
	}
	return strings.Join(parts, ", ")
}

func refParseHints(header string) []markov.Prediction {
	if header == "" {
		return nil
	}
	var out []markov.Prediction
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		url, rest, found := strings.Cut(part, ";")
		p := markov.Prediction{URL: unescapeHintURL(strings.TrimSpace(url)), Probability: 0}
		if found {
			if v, ok := strings.CutPrefix(strings.TrimSpace(rest), "p="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					p.Probability = f
				}
			}
		}
		if p.URL != "" {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Probability > out[j].Probability })
	return out
}

func refFormatReport(entries []ReportEntry) string {
	parts := make([]string, 0, len(entries))
	for _, e := range entries {
		tag := ";h=c"
		if e.Outcome == quality.PrefetchHit {
			tag = ";h=p"
		}
		parts = append(parts, escapeHintURL(e.URL)+tag)
	}
	return strings.Join(parts, ", ")
}

func refParseReport(header string) []ReportEntry {
	if header == "" {
		return nil
	}
	var out []ReportEntry
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		url, rest, found := strings.Cut(part, ";")
		if !found {
			continue
		}
		var outcome quality.Outcome
		switch strings.TrimSpace(rest) {
		case "h=p":
			outcome = quality.PrefetchHit
		case "h=c":
			outcome = quality.CacheHit
		default:
			continue
		}
		u := unescapeHintURL(strings.TrimSpace(url))
		if u == "" {
			continue
		}
		out = append(out, ReportEntry{URL: u, Outcome: outcome})
	}
	return out
}

// sameHints compares parsed hints field by field, probabilities by
// their bits so NaN equals NaN.
func sameHints(a, b []markov.Prediction) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].URL != b[i].URL || a[i].Order != b[i].Order ||
			math.Float64bits(a[i].Probability) != math.Float64bits(b[i].Probability) {
			return false
		}
	}
	return true
}

// hintHeaderSeeds are headers for the parse fuzzers: white space, empty
// and malformed elements, NaN and infinite probabilities, and a list
// longer than the stable sort's 20-element insertion blocks.
func hintHeaderSeeds() []string {
	long := make([]string, 45)
	for i := range long {
		switch i % 4 {
		case 0:
			long[i] = fmt.Sprintf("/l%d;p=NaN", i)
		case 1:
			long[i] = fmt.Sprintf("/l%d;p=0.%d", i, i)
		case 2:
			long[i] = fmt.Sprintf(" /l%d ;h=p", i)
		default:
			long[i] = fmt.Sprintf("/l%d;p=%d", i, i%3)
		}
	}
	return []string{
		"", ",", " , ,", "/a;p=0.5, /b;p=0.75", "/a;p=NaN, /b;p=0.1, /c;p=NaN, /d;p=0.9",
		"/x;p=+Inf,/y;p=-Inf,/z;p=1e308", "/q;p= 0.5", "/r;p", "/s", "%2C;p=0.2",
		"/a;h=p, /b;h=c, /c;h=x, ;h=p", "/a; h=p ,/b ;h=c,/c;\th=p, /d; p=0.5, /e ;p=0.25",
		"\u0085/u\u00a0;p=0.1", strings.Join(long, ","),
	}
}

// FuzzHintHeaderRoundTrip asserts that any URL survives the
// format/parse cycle byte-for-byte, and that the one-pass codec matches
// the reference: formatted headers byte-equal, parses equal (order and
// NaN probabilities included).
func FuzzHintHeaderRoundTrip(f *testing.F) {
	urls := []string{"/home", "/a,b;c", "a b", "%", "%%2C", "/q?x=1,2;3", "ü", "\x00\x01,", ""}
	for i, header := range hintHeaderSeeds() {
		f.Add(urls[i%len(urls)], 0.5-float64(i)/7, header)
	}
	f.Add("/nan", math.NaN(), hintHeaderSeeds()[4])
	f.Add("/inf", math.Inf(-1), hintHeaderSeeds()[13])
	f.Fuzz(func(t *testing.T, url string, prob float64, header string) {
		if e := escapeHintURL(url); unescapeHintURL(e) != url {
			t.Fatalf("escape/unescape: %q -> %q -> %q", url, e, unescapeHintURL(e))
		}
		pair := []markov.Prediction{{URL: url, Probability: prob}, {URL: "/b,c;d", Probability: 0.25}}
		if got, want := FormatHints(pair), refFormatHints(pair); got != want {
			t.Fatalf("FormatHints(%+v) = %q, reference %q", pair, got, want)
		}
		for _, h := range []string{header, refFormatHints(pair)} {
			if got, want := ParseHints(h), refParseHints(h); !sameHints(got, want) {
				t.Fatalf("ParseHints(%q) = %+v, reference %+v", h, got, want)
			}
		}
		hints := []markov.Prediction{{URL: url, Probability: 0.5}}
		got := ParseHints(FormatHints(hints))
		if url == "" {
			if len(got) != 0 {
				t.Fatalf("empty URL parsed to %+v", got)
			}
			return
		}
		if len(got) != 1 || got[0].URL != url {
			t.Fatalf("header round trip: %q -> %q -> %+v", url, FormatHints(hints), got)
		}
	})
}

// FuzzReportHeaderRoundTrip is the report protocol's counterpart: any
// URL and outcome survive the format/parse cycle, formatted headers
// byte-equal the reference's, and any header parses as the reference
// parses it.
func FuzzReportHeaderRoundTrip(f *testing.F) {
	urls := []string{"/home", "/a,b;c", "a b", "%", "/q?x=1,2;3", "ü", ""}
	for i, header := range hintHeaderSeeds() {
		f.Add(urls[i%len(urls)], i%2 == 0, header)
	}
	f.Fuzz(func(t *testing.T, url string, prefetched bool, header string) {
		outcome := quality.CacheHit
		if prefetched {
			outcome = quality.PrefetchHit
		}
		entries := []ReportEntry{{URL: url, Outcome: outcome}, {URL: "/b,c;d", Outcome: quality.CacheHit}}
		if got, want := FormatReport(entries), refFormatReport(entries); got != want {
			t.Fatalf("FormatReport(%+v) = %q, reference %q", entries, got, want)
		}
		for _, h := range []string{header, refFormatReport(entries)} {
			if got, want := ParseReport(h), refParseReport(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseReport(%q) = %+v, reference %+v", h, got, want)
			}
		}
		got := ParseReport(FormatReport(entries[:1]))
		if url == "" {
			if len(got) != 0 {
				t.Fatalf("empty URL parsed to %+v", got)
			}
			return
		}
		if len(got) != 1 || got[0] != entries[0] {
			t.Fatalf("report round trip: %+v -> %q -> %+v", entries[0], FormatReport(entries[:1]), got)
		}
	})
}
