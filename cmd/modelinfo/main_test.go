package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
)

// sessions is a small training set whose root branches have distinct
// counts under every model kind.
func sessions() [][]string {
	var out [][]string
	for i := 0; i < 6; i++ {
		out = append(out,
			[]string{"/home", "/news", "/news/today", "/sports"},
			[]string{"/home", "/news", "/weather"},
			[]string{"/docs", "/docs/api", "/docs/api/tree"})
		if i%2 == 0 {
			out = append(out, []string{"/home", "/sports", "/news"}, []string{"/blog", "/home"})
		}
	}
	return out
}

// writeSnapshot writes m's frozen snapshot with rank to dir/name and
// returns the path.
func writeSnapshot(t *testing.T, dir, name string, m markov.Predictor, rank *popularity.Ranking) string {
	t.Helper()
	var img bytes.Buffer
	if err := maintain.EncodeSnapshot(&img, 1, markov.Freeze(m).(*markov.FrozenTree), rank); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// intAfter returns the integer that follows pattern in out.
func intAfter(t *testing.T, out, pattern string) int {
	t.Helper()
	m := regexp.MustCompile(pattern + `(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q in output:\n%s", pattern, out)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// hotRoots returns the URLs of tree's root branches, highest count
// first and URL ascending on ties.
func hotRoots(tree *markov.Tree) []string {
	type branch struct {
		url   string
		count int64
	}
	var bs []branch
	tree.EachChild(markov.Root, func(url string, c uint32) bool {
		bs = append(bs, branch{url, tree.Count(c)})
		return true
	})
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].count != bs[j].count {
			return bs[i].count > bs[j].count
		}
		return bs[i].url < bs[j].url
	})
	urls := make([]string, len(bs))
	for i, b := range bs {
		urls[i] = b.url
	}
	return urls
}

// TestModelInfoReadsEveryKind: for every model kind, modelinfo reports
// the model's node count, the tree's nodes, PB-PPM's rule-3 links, the
// bytes of its arena image and of the file, and the root branches
// hottest first — the figures of the live model the image was frozen
// from.
func TestModelInfoReadsEveryKind(t *testing.T) {
	rank := popularity.NewRanking()
	for _, s := range sessions() {
		for _, u := range s {
			rank.Observe(u, 1)
		}
	}
	models := []interface {
		markov.Predictor
		markov.TreeHolder
	}{
		core.New(rank, core.Config{}),
		ppm.New(ppm.Config{Height: 3}),
		ppm.New(ppm.Config{BlendOrders: true}),
		lrs.New(lrs.Config{}),
	}
	dir := t.TempDir()
	for i, m := range models {
		for _, s := range sessions() {
			m.TrainSequence(s)
		}
		path := writeSnapshot(t, dir, strconv.Itoa(i)+".snap", m, rank)
		var stdout, stderr bytes.Buffer
		if code := run([]string{path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", m.Name(), code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, m.Name()+" (snapshot version 1)") {
			t.Errorf("%s: output does not name the model and version:\n%s", m.Name(), out)
		}
		if got := intAfter(t, out, `\), `); got != m.NodeCount() {
			t.Errorf("%s: model node count %d, want %d", m.Name(), got, m.NodeCount())
		}
		if got := intAfter(t, out, `(?m)^nodes `); got != m.Tree().NodeCount() {
			t.Errorf("%s: tree nodes %d, want %d", m.Name(), got, m.Tree().NodeCount())
		}
		if pb, ok := m.(*core.Model); ok {
			if pb.LinkCount() == 0 {
				t.Fatal("fixture produced no rule-3 links")
			}
			if got := intAfter(t, out, `duplicated links: `); got != pb.LinkCount() {
				t.Errorf("duplicated links %d, want %d", got, pb.LinkCount())
			}
		} else if strings.Contains(out, "duplicated links") {
			t.Errorf("%s: reports duplicated links it does not have:\n%s", m.Name(), out)
		}
		if got, want := intAfter(t, out, `arena image `), len(markov.Freeze(m).(markov.ArenaHolder).Arena().Bytes()); got != want {
			t.Errorf("%s: arena image of %d bytes, want %d", m.Name(), got, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := intAfter(t, out, `file `); got != int(fi.Size()) {
			t.Errorf("%s: file of %d bytes, want %d", m.Name(), got, fi.Size())
		}
		if got := intAfter(t, out, `ranking: `); got != rank.Len() {
			t.Errorf("%s: ranking of %d URLs, want %d", m.Name(), got, rank.Len())
		}
		_, hot, _ := strings.Cut(out, "hot branches:\n")
		var listed []string
		for _, line := range strings.Split(strings.TrimSpace(hot), "\n") {
			listed = append(listed, strings.Fields(line)[0])
		}
		want := hotRoots(m.Tree())
		if len(want) > 10 {
			want = want[:10]
		}
		if strings.Join(listed, " ") != strings.Join(want, " ") {
			t.Errorf("%s: hot branches %v, want %v", m.Name(), listed, want)
		}
	}
}

// TestModelInfoRejectsBadFiles: a missing, truncated or foreign file,
// an image in an older build's pbppmSN1, pbppmSN2 or pbppmSN3 format,
// or one whose arena is in an older build's pbppmAR3 layout, exits
// non-zero and says why on stderr.
func TestModelInfoRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	m := ppm.New(ppm.Config{})
	m.TrainSequence([]string{"/a", "/b"})
	good := writeSnapshot(t, dir, "good.snap", m, nil)
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.snap")
	foreign := filepath.Join(dir, "foreign.snap")
	older := filepath.Join(dir, "older.snap")
	olderSN2 := filepath.Join(dir, "older-sn2.snap")
	olderSN3 := filepath.Join(dir, "older-sn3.snap")
	if err := os.WriteFile(truncated, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign, append([]byte("notasnap"), img[8:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, append([]byte("pbppmSN1"), img[8:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(olderSN2, append([]byte("pbppmSN2"), img[8:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(olderSN3, append([]byte("pbppmSN3"), img[8:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	// The arena magic rewritten and the CRC-64/ECMA trailer resealed, so
	// only the arena's version is wrong.
	olderArenaImg := bytes.Replace(img, []byte("pbppmAR4"), []byte("pbppmAR3"), 1)
	if bytes.Equal(olderArenaImg, img) {
		t.Fatal("snapshot carries no pbppmAR4 arena")
	}
	body := olderArenaImg[:len(olderArenaImg)-8]
	binary.LittleEndian.PutUint64(olderArenaImg[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	olderArena := filepath.Join(dir, "older-arena.snap")
	if err := os.WriteFile(olderArena, olderArenaImg, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{filepath.Join(dir, "missing.snap"), "no such file"},
		{truncated, "checksum"},
		{foreign, "bad snapshot magic"},
		{older, "bad snapshot magic"},
		{olderSN2, "bad snapshot magic"},
		{olderSN3, "bad snapshot magic"},
		{olderArena, `arena: bad magic "pbppmAR3"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{c.path}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", filepath.Base(c.path), code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: stderr %q does not mention %q", filepath.Base(c.path), stderr.String(), c.want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
}
