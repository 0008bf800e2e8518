package trace

import (
	"strings"
	"testing"
)

// oracleHTMLExts and oracleImageExts are §2.2's lists as the map-based
// classifier held them.
var oracleHTMLExts = map[string]bool{
	".html": true, ".htm": true, ".shtml": true,
}

var oracleImageExts = map[string]bool{
	".gif": true, ".xbm": true, ".jpg": true, ".jpeg": true,
	".gif89": true, ".tif": true, ".tiff": true, ".bmp": true,
	".ief": true, ".jpe": true, ".ras": true, ".pnm": true,
	".pgm": true, ".ppm": true, ".rgb": true, ".xpm": true,
	".xwd": true, ".pcx": true, ".pbm": true, ".pic": true,
}

// oracleClassify is the map-based classifier Classify replaced: it
// lowers the extension with strings.ToLower and looks it up in two
// maps. Classify must answer as it does for every string.
func oracleClassify(url string) Kind {
	path := url
	if i := strings.IndexAny(path, "?#"); i >= 0 {
		path = path[:i]
	}
	if path == "" || strings.HasSuffix(path, "/") {
		return KindHTML
	}
	slash := strings.LastIndexByte(path, '/')
	base := path[slash+1:]
	dot := strings.LastIndexByte(base, '.')
	if dot < 0 {
		return KindOther
	}
	ext := strings.ToLower(base[dot:])
	switch {
	case oracleHTMLExts[ext]:
		return KindHTML
	case oracleImageExts[ext]:
		return KindImage
	default:
		return KindOther
	}
}

// mixedCase upper-cases every other letter of s.
func mixedCase(s string) string {
	b := []byte(s)
	for i := range b {
		if i%2 == 1 && 'a' <= b[i] && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// TestClassifyEveryExtension classifies every §2.2 extension in lower,
// upper and mixed case, bare and followed by a query, a fragment or
// both, and checks each answer against the list and the oracle.
func TestClassifyEveryExtension(t *testing.T) {
	check := func(url string, want Kind) {
		t.Helper()
		if got := Classify(url); got != want {
			t.Errorf("Classify(%q) = %v, want %v", url, got, want)
		}
		if got := oracleClassify(url); got != want {
			t.Errorf("oracleClassify(%q) = %v, want %v", url, got, want)
		}
	}
	for _, list := range []struct {
		exts map[string]bool
		kind Kind
	}{{oracleHTMLExts, KindHTML}, {oracleImageExts, KindImage}} {
		for ext := range list.exts {
			for _, e := range []string{ext, strings.ToUpper(ext), mixedCase(ext)} {
				for _, tail := range []string{"", "?q=1", "#frag", "?a.txt#b.zip", "#x?y"} {
					check("/dir/page"+e+tail, list.kind)
					check("page"+e+tail, list.kind)
				}
				// A longer or shorter extension is not on the list.
				check("/dir/page"+e+"x", KindOther)
				check("/dir.d"+e+"/noext", KindOther)
				// The dot must be in the last path segment.
				check("/dir"+e+"/", KindHTML)
			}
		}
	}
	for _, c := range []struct {
		url  string
		want Kind
	}{
		{"", KindHTML},
		{"/", KindHTML},
		{"/dir/", KindHTML},
		{"/dir/?q=a.gif", KindHTML},
		{"/dir/#a.gif", KindHTML},
		{"?a.gif", KindHTML},
		{"#a.gif", KindHTML},
		{"/noext", KindOther},
		{"/noext?x.html", KindOther},
		{"/a.", KindOther},
		{"/.gif", KindImage},
		{"/a.gif.bak", KindOther},
		{"/a.html5", KindOther},
		{"/a.shtmlx", KindOther},
		{"/a.G\u0130F", KindImage}, // U+0130 (İ) lowers to 'i'
		{"/a.\u212abm", KindOther}, // KELVIN SIGN lowers to 'k'
		{"/a.gi\xff", KindOther},
		{"/a.g\xc4", KindOther},
	} {
		check(c.url, c.want)
	}
}

// FuzzClassify requires Classify to answer as the map-based oracle on
// arbitrary strings, non-ASCII and invalid UTF-8 included.
func FuzzClassify(f *testing.F) {
	for _, s := range []string{
		"", "/", "/index.html", "/A.JPEG?x#y", "/x.G\u0130F", "/x.\u212abm",
		"/x.g\xc4\xb0f", "/x.gif89", "/d.tiff/", "/p.html#f?g", "/e.\xff",
		"/x.T\u0130FF", "/x.\u0130\u0130\u0130\u0130\u0130",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, url string) {
		if got, want := Classify(url), oracleClassify(url); got != want {
			t.Fatalf("Classify(%q) = %v, oracle says %v", url, got, want)
		}
	})
}
