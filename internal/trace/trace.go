// Package trace defines the HTTP access-log record model used throughout
// the simulator, together with parsing and encoding of the Apache Common
// Log Format (the format of the NASA-KSC and UCB-CS traces evaluated in
// the paper), MIME-kind classification, and day-window slicing.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// Record is one HTTP request as it appears in a server access log.
type Record struct {
	// Client identifies the requesting host. Real logs carry an IP or a
	// resolved hostname; the synthetic generator carries a stable client
	// label. A single Client may be a browser or a proxy aggregating
	// many browsers (classified by internal/session).
	Client string
	// Time is the request timestamp. Log timestamps have one-second
	// resolution; generated traces preserve that granularity.
	Time time.Time
	// Method is the HTTP method, almost always "GET" in these traces.
	Method string
	// URL is the requested path, already stripped of protocol and host.
	URL string
	// Status is the HTTP response status code.
	Status int
	// Bytes is the size of the response body in bytes.
	Bytes int64
}

// Kind classifies a URL by the role it plays in a page view.
type Kind int

const (
	// KindOther covers everything that is neither an HTML document nor
	// an embeddable image: scripts, archives, directory listings, etc.
	KindOther Kind = iota
	// KindHTML marks an HTML document (.html, .htm, .shtml, or a
	// path ending in "/" which servers resolve to an index document).
	KindHTML
	// KindImage marks an embeddable image type from the list in §2.2 of
	// the paper.
	KindImage
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindHTML:
		return "html"
	case KindImage:
		return "image"
	default:
		return "other"
	}
}

// Classify reports the Kind of a URL path based on its extension.
// Query strings and fragments are ignored. A trailing slash (or an
// empty path) counts as HTML because servers serve index documents
// for directory URLs. Extensions match without regard to case, as
// strings.ToLower would fold them.
func Classify(url string) Kind {
	path := url
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if i := strings.IndexByte(path, '#'); i >= 0 {
		path = path[:i]
	}
	if path == "" || path[len(path)-1] == '/' {
		return KindHTML
	}
	slash := strings.LastIndexByte(path, '/')
	base := path[slash+1:]
	dot := strings.LastIndexByte(base, '.')
	if dot < 0 {
		return KindOther
	}
	// Lower the extension into a buffer as long as the longest one
	// listed. strings.ToLower maps two non-ASCII letters to ASCII:
	// U+0130 (İ) to 'i', which extensions use, and U+212A (KELVIN SIGN)
	// to 'k', which none does. So any other non-ASCII byte keeps the
	// extension off every list.
	var buf [5]byte
	n := 0
	for i := dot + 1; i < len(base); i++ {
		c := base[i]
		switch {
		case n == len(buf):
			return KindOther
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case c == 0xc4 && i+1 < len(base) && base[i+1] == 0xb0:
			c = 'i'
			i++
		case c >= utf8.RuneSelf:
			return KindOther
		}
		buf[n] = c
		n++
	}
	// The lists follow §2.2 of the paper verbatim.
	switch string(buf[:n]) {
	case "html", "htm", "shtml":
		return KindHTML
	case "gif", "xbm", "jpg", "jpeg", "gif89", "tif", "tiff", "bmp",
		"ief", "jpe", "ras", "pnm", "pgm", "ppm", "rgb", "xpm", "xwd",
		"pcx", "pbm", "pic":
		return KindImage
	}
	return KindOther
}

// Kind returns the classification of the record's URL.
func (r Record) Kind() Kind { return Classify(r.URL) }

// Day returns the zero-based day index of the record relative to epoch.
// Records sharing a Day index belong to the same 24-hour window; the
// paper's experiments slice traces into such day files.
func (r Record) Day(epoch time.Time) int {
	d := r.Time.Sub(epoch)
	if d < 0 {
		// Records before the epoch land on negative day indices so the
		// caller can detect and reject them.
		return int((d - 24*time.Hour + time.Nanosecond) / (24 * time.Hour))
	}
	return int(d / (24 * time.Hour))
}

// Trace is an ordered collection of log records plus the epoch that
// anchors day numbering. Records are expected to be sorted by Time;
// Sort restores that invariant after any mutation.
type Trace struct {
	Epoch   time.Time
	Records []Record
}

// Sort orders records by time, breaking ties by client then URL so that
// ordering is deterministic. Records equal in all three keep their
// order. A trace already in order is only read.
func (t *Trace) Sort() {
	recs := (*byKey)(&t.Records) // a pointer, so recs boxes without allocating
	if !sort.IsSorted(recs) {
		sort.Stable(recs)
	}
}

// byKey sorts records in place through pointers. slices.SortStableFunc
// would pass its comparator two 88-byte records by value, and copying
// them costs about what dropping sort.SliceStable's reflection saves.
type byKey []Record

func (s *byKey) Len() int           { return len(*s) }
func (s *byKey) Less(i, j int) bool { return compareRecords(&(*s)[i], &(*s)[j]) < 0 }
func (s *byKey) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }

// compareRecords orders records by instant, then client, then URL.
// Time.Compare is exact for any year ParseCLF accepts, where a UnixNano
// key would overflow outside 1678–2262.
func compareRecords(a, b *Record) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.Client, b.Client); c != 0 {
		return c
	}
	return strings.Compare(a.URL, b.URL)
}

// Days returns the number of day windows spanned by the trace: one more
// than the maximum day index, or zero for an empty trace.
func (t *Trace) Days() int {
	max := -1
	for _, r := range t.Records {
		if d := r.Day(t.Epoch); d > max {
			max = d
		}
	}
	return max + 1
}

// Window returns the sub-trace containing records with day index in
// [fromDay, toDay). The records slice aliases the original storage.
func (t *Trace) Window(fromDay, toDay int) *Trace {
	lo := t.Epoch.Add(time.Duration(fromDay) * 24 * time.Hour)
	hi := t.Epoch.Add(time.Duration(toDay) * 24 * time.Hour)
	start := sort.Search(len(t.Records), func(i int) bool {
		return !t.Records[i].Time.Before(lo)
	})
	end := sort.Search(len(t.Records), func(i int) bool {
		return !t.Records[i].Time.Before(hi)
	})
	return &Trace{Epoch: t.Epoch, Records: t.Records[start:end]}
}

// Validate checks basic trace invariants: non-empty client and URL
// fields, non-negative sizes, records sorted by time, and no record
// before the epoch. It returns a descriptive error for the first
// violation found.
func (t *Trace) Validate() error {
	var prev time.Time
	for i, r := range t.Records {
		switch {
		case r.Client == "":
			return fmt.Errorf("trace: record %d has empty client", i)
		case r.URL == "":
			return fmt.Errorf("trace: record %d has empty URL", i)
		case r.Bytes < 0:
			return fmt.Errorf("trace: record %d has negative size %d", i, r.Bytes)
		case r.Time.Before(t.Epoch):
			return fmt.Errorf("trace: record %d at %v precedes epoch %v", i, r.Time, t.Epoch)
		case i > 0 && r.Time.Before(prev):
			return fmt.Errorf("trace: record %d at %v out of order (previous %v)", i, r.Time, prev)
		}
		prev = r.Time
	}
	return nil
}
