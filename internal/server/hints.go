package server

import (
	"slices"
	"strconv"
	"strings"

	"pbppm/internal/markov"
)

// The X-Prefetch header is a comma-separated hint list in which ';'
// separates a URL from its parameters: "url;p=0.62, url2;p=0.31".
// URLs are percent-escaped so the two delimiter bytes (and '%' itself,
// spaces, controls, and non-ASCII bytes) round-trip through the header
// unharmed.

const upperhex = "0123456789ABCDEF"

// hintEscapeNeeded reports whether byte c would corrupt the hint-list
// syntax or the header encoding if emitted raw.
func hintEscapeNeeded(c byte) bool {
	return c <= ' ' || c >= 0x7f || c == '%' || c == ',' || c == ';'
}

// writeHintURL writes u to b, percent-escaping the bytes that collide
// with the hint-list syntax.
func writeHintURL(b *strings.Builder, u string) {
	start := 0
	for i := 0; i < len(u); i++ {
		if c := u[i]; hintEscapeNeeded(c) {
			b.WriteString(u[start:i])
			b.WriteByte('%')
			b.WriteByte(upperhex[c>>4])
			b.WriteByte(upperhex[c&0xf])
			start = i + 1
		}
	}
	b.WriteString(u[start:])
}

// headerElems calls fn with each comma-separated element of a hint or
// report header, trimmed of surrounding white space, skipping empty
// ones.
func headerElems(header string, fn func(elem string)) {
	for header != "" {
		elem, rest, _ := strings.Cut(header, ",")
		if elem = strings.TrimSpace(elem); elem != "" {
			fn(elem)
		}
		header = rest
	}
}

// unescapeHintURL inverts writeHintURL's escaping. Malformed percent
// triples are kept literally so legacy unescaped headers still parse.
func unescapeHintURL(u string) string {
	if !strings.Contains(u, "%") {
		return u
	}
	var b strings.Builder
	b.Grow(len(u))
	for i := 0; i < len(u); i++ {
		c := u[i]
		if c == '%' && i+2 < len(u) {
			if hi, ok1 := unhex(u[i+1]); ok1 {
				if lo, ok2 := unhex(u[i+2]); ok2 {
					b.WriteByte(hi<<4 | lo)
					i += 2
					continue
				}
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// FormatHints renders the X-Prefetch header value,
// "url;p=0.62, url2;p=0.31", percent-escaping each URL and writing each
// probability with three decimals.
func FormatHints(hints []markov.Prediction) string {
	if len(hints) == 0 {
		return ""
	}
	var b strings.Builder
	n := 0
	for _, h := range hints {
		n += len(h.URL) + len(", ;p=0.000")
	}
	b.Grow(n)
	var num [32]byte
	for i, h := range hints {
		if i > 0 {
			b.WriteString(", ")
		}
		writeHintURL(&b, h.URL)
		b.WriteString(";p=")
		b.Write(strconv.AppendFloat(num[:0], h.Probability, 'f', 3, 64))
	}
	return b.String()
}

// ParseHints inverts FormatHints; malformed elements are skipped. The
// hints come back stably ordered by probability, highest first.
func ParseHints(header string) []markov.Prediction {
	if header == "" {
		return nil
	}
	var out []markov.Prediction
	headerElems(header, func(elem string) {
		url, rest, found := strings.Cut(elem, ";")
		p := markov.Prediction{URL: unescapeHintURL(strings.TrimSpace(url))}
		if p.URL == "" {
			return
		}
		if found {
			if v, ok := strings.CutPrefix(strings.TrimSpace(rest), "p="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					p.Probability = f
				}
			}
		}
		if out == nil {
			out = make([]markov.Prediction, 0, strings.Count(header, ",")+1)
		}
		out = append(out, p)
	})
	// Highest probability first; a NaN compares equal to every
	// probability.
	slices.SortStableFunc(out, func(a, b markov.Prediction) int {
		switch {
		case a.Probability > b.Probability:
			return -1
		case a.Probability < b.Probability:
			return 1
		}
		return 0
	})
	return out
}
