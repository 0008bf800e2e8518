package trace

import (
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(1995, 7, 1, 0, 0, 0, 0, time.UTC)

func rec(day int, sec int, client, url string, bytes int64) Record {
	return Record{
		Client: client,
		Time:   epoch.Add(time.Duration(day)*24*time.Hour + time.Duration(sec)*time.Second),
		Method: "GET",
		URL:    url,
		Status: 200,
		Bytes:  bytes,
	}
}

func TestClassifyHTML(t *testing.T) {
	for _, u := range []string{
		"/index.html", "/a/b/page.htm", "/x.shtml", "/dir/", "/",
		"/UPPER.HTML", "/page.html?query=1", "/page.html#frag", "",
	} {
		if got := Classify(u); got != KindHTML {
			t.Errorf("Classify(%q) = %v, want html", u, got)
		}
	}
}

func TestClassifyImage(t *testing.T) {
	for _, u := range []string{
		"/img/logo.gif", "/a.jpg", "/b.JPEG", "/c.xbm", "/d.tiff",
		"/e.bmp", "/f.pnm", "/g.xpm", "/h.pcx", "/deep/path/i.ppm",
	} {
		if got := Classify(u); got != KindImage {
			t.Errorf("Classify(%q) = %v, want image", u, got)
		}
	}
}

func TestClassifyOther(t *testing.T) {
	for _, u := range []string{
		"/cgi-bin/script.pl", "/a.txt", "/archive.zip", "/noext",
		"/a.html.bak", "/movie.mpg",
	} {
		if got := Classify(u); got != KindOther {
			t.Errorf("Classify(%q) = %v, want other", u, got)
		}
	}
}

func TestRecordDay(t *testing.T) {
	r := rec(3, 100, "c", "/", 1)
	if got := r.Day(epoch); got != 3 {
		t.Errorf("Day = %d, want 3", got)
	}
	r = rec(0, 0, "c", "/", 1)
	if got := r.Day(epoch); got != 0 {
		t.Errorf("Day = %d, want 0", got)
	}
	// Just before the epoch must land on a negative day.
	r.Time = epoch.Add(-time.Second)
	if got := r.Day(epoch); got >= 0 {
		t.Errorf("Day before epoch = %d, want negative", got)
	}
}

func TestTraceSortDeterministic(t *testing.T) {
	tr := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 5, "b", "/2", 1),
		rec(0, 5, "a", "/1", 1),
		rec(0, 1, "z", "/3", 1),
		rec(0, 5, "a", "/0", 1),
	}}
	tr.Sort()
	want := []string{"/3", "/0", "/1", "/2"}
	for i, w := range want {
		if tr.Records[i].URL != w {
			t.Fatalf("after sort record %d = %q, want %q", i, tr.Records[i].URL, w)
		}
	}
}

func TestTraceDaysAndWindow(t *testing.T) {
	tr := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 10, "a", "/x", 1),
		rec(1, 20, "a", "/y", 1),
		rec(2, 30, "b", "/z", 1),
		rec(4, 40, "b", "/w", 1),
	}}
	if got := tr.Days(); got != 5 {
		t.Errorf("Days = %d, want 5", got)
	}
	w := tr.Window(1, 3)
	if len(w.Records) != 2 {
		t.Fatalf("Window(1,3) has %d records, want 2", len(w.Records))
	}
	if w.Records[0].URL != "/y" || w.Records[1].URL != "/z" {
		t.Errorf("Window(1,3) = %v", w.Records)
	}
	if got := len(tr.Window(0, 0).Records); got != 0 {
		t.Errorf("empty window has %d records", got)
	}
	if got := len(tr.Window(0, 5).Records); got != 4 {
		t.Errorf("full window has %d records, want 4", got)
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 1, "a", "/x", 1), rec(0, 2, "b", "/y", 0),
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"empty client", func(tr *Trace) { tr.Records[0].Client = "" }},
		{"empty url", func(tr *Trace) { tr.Records[1].URL = "" }},
		{"negative size", func(tr *Trace) { tr.Records[0].Bytes = -1 }},
		{"out of order", func(tr *Trace) { tr.Records[1].Time = epoch.Add(time.Millisecond) }},
		{"before epoch", func(tr *Trace) { tr.Records[0].Time = epoch.Add(-time.Hour) }},
	}
	for _, c := range cases {
		tr := &Trace{Epoch: epoch, Records: []Record{
			rec(0, 1, "a", "/x", 1), rec(0, 2, "b", "/y", 0),
		}}
		c.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: invalid trace accepted", c.name)
		}
	}
}

func TestParseCLFRoundTrip(t *testing.T) {
	orig := rec(2, 3601, "client42.example.com", "/shuttle/missions.html", 7280)
	line := MarshalCLF(orig)
	got, err := ParseCLF(line)
	if err != nil {
		t.Fatalf("ParseCLF(%q): %v", line, err)
	}
	if got.Client != orig.Client || !got.Time.Equal(orig.Time) ||
		got.Method != orig.Method || got.URL != orig.URL ||
		got.Status != orig.Status || got.Bytes != orig.Bytes {
		t.Errorf("round trip mismatch: got %+v want %+v", got, orig)
	}
}

func TestParseCLFRealLines(t *testing.T) {
	// Lines in the style of the public NASA-KSC trace.
	cases := []struct {
		line   string
		client string
		url    string
		status int
		bytes  int64
	}{
		{
			`199.72.81.55 - - [01/Jul/1995:00:00:01 -0400] "GET /history/apollo/ HTTP/1.0" 200 6245`,
			"199.72.81.55", "/history/apollo/", 200, 6245,
		},
		{
			`unicomp6.unicomp.net - - [01/Jul/1995:00:00:06 -0400] "GET /shuttle/countdown/ HTTP/1.0" 200 3985`,
			"unicomp6.unicomp.net", "/shuttle/countdown/", 200, 3985,
		},
		{
			`burger.letters.com - - [01/Jul/1995:00:00:12 -0400] "GET /images/NASA-logosmall.gif HTTP/1.0" 304 0`,
			"burger.letters.com", "/images/NASA-logosmall.gif", 304, 0,
		},
		{
			`host.example.org - - [01/Jul/1995:00:01:00 -0400] "GET /missing.html HTTP/1.0" 404 -`,
			"host.example.org", "/missing.html", 404, 0,
		},
	}
	for _, c := range cases {
		r, err := ParseCLF(c.line)
		if err != nil {
			t.Errorf("ParseCLF(%q): %v", c.line, err)
			continue
		}
		if r.Client != c.client || r.URL != c.url || r.Status != c.status || r.Bytes != c.bytes {
			t.Errorf("ParseCLF(%q) = %+v", c.line, r)
		}
	}
}

func TestParseCLFErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"hostonly",
		`h - - [badtime] "GET / HTTP/1.0" 200 1`,
		`h - - [01/Jul/1995:00:00:01 -0400] GET / 200 1`,
		`h - - [01/Jul/1995:00:00:01 -0400] "GET / HTTP/1.0" x 1`,
		`h - - [01/Jul/1995:00:00:01 -0400] "GET / HTTP/1.0" 200 y`,
		`h - - [01/Jul/1995:00:00:01 -0400] "GET / HTTP/1.0"`,
		`h - - [01/Jul/1995:00:00:01 -0400] "unterminated 200 1`,
	} {
		if _, err := ParseCLF(line); err == nil {
			t.Errorf("ParseCLF(%q) succeeded, want error", line)
		}
	}
}

func TestReadWriteCLF(t *testing.T) {
	tr := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 1, "a.example.com", "/index.html", 100),
		rec(0, 2, "b.example.com", "/img/x.gif", 2048),
		rec(1, 3, "a.example.com", "/page.html", 512),
	}}
	var sb strings.Builder
	if err := WriteCLF(&sb, tr); err != nil {
		t.Fatalf("WriteCLF: %v", err)
	}
	// Inject one corrupt line to exercise skip counting.
	text := sb.String() + "corrupt line without fields\n"
	got, skipped, err := ReadCLF(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadCLF: %v", err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(got.Records) != 3 {
		t.Fatalf("read %d records, want 3", len(got.Records))
	}
	if !got.Epoch.Equal(epoch) {
		t.Errorf("epoch = %v, want %v", got.Epoch, epoch)
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		if a.Client != b.Client || a.URL != b.URL || !a.Time.Equal(b.Time) || a.Bytes != b.Bytes {
			t.Errorf("record %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCLFEmpty(t *testing.T) {
	tr, skipped, err := ReadCLF(strings.NewReader("\n\n"))
	if err != nil || skipped != 0 || len(tr.Records) != 0 {
		t.Errorf("ReadCLF(empty) = %v records, skipped %d, err %v", len(tr.Records), skipped, err)
	}
}

// TestReadCLFSkipsOverlongLine checks that a line too long for the
// scanner is counted and skipped like any unparseable line, while a
// line that just fits is still read.
func TestReadCLFSkipsOverlongLine(t *testing.T) {
	good := MarshalCLF(rec(0, 1, "a", "/x.html", 10)) + "\n"
	fits := MarshalCLF(rec(0, 2, "b", "/y.html", 10))
	fits += strings.Repeat(" ", maxLineBytes-1-len(fits)) + "\n"
	long := strings.Repeat("x", 2*maxLineBytes)
	for _, c := range []struct {
		name             string
		in               string
		records, skipped int
	}{
		{"between good lines", good + long + "\n" + good, 2, 1},
		{"last without newline", good + long, 1, 1},
		{"one byte under the limit", good + fits + good, 3, 0},
		{"one byte over the limit", good + "x" + fits + good, 2, 1},
	} {
		tr, skipped, err := ReadCLF(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: ReadCLF: %v", c.name, err)
		}
		if len(tr.Records) != c.records || skipped != c.skipped {
			t.Errorf("%s: %d records, %d skipped; want %d, %d",
				c.name, len(tr.Records), skipped, c.records, c.skipped)
		}
	}
}
