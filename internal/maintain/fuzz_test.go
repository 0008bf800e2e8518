package maintain

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
)

// fuzzSeedSnapshots returns snapshot images of every model the
// repository publishes — PB-PPM with its rule-3 links, 3-PPM, LRS and
// blended PPM — each with and without a ranking, and the image that
// testdata/pbppm-tiny.snap pins, which is small enough that most
// mutations land in a section rather than in the arena.
func fuzzSeedSnapshots(f *testing.F) [][]byte {
	walks := [][]string{
		{"/home", "/news", "/news/today", "/sports"},
		{"/home", "/news", "/weather"},
		{"/docs", "/docs/api", "/docs/api/tree"},
		{"/home", "/sports"},
	}
	rank := popularity.NewRanking()
	for _, w := range walks {
		for _, u := range w {
			rank.Observe(u, 1)
		}
	}
	models := []markov.Predictor{
		core.New(rank, core.Config{}),
		ppm.New(ppm.Config{Height: 3}),
		lrs.New(lrs.Config{}),
		ppm.New(ppm.Config{BlendOrders: true}),
	}
	var out [][]byte
	for _, m := range models {
		for i := 0; i < 3; i++ {
			for _, w := range walks {
				m.TrainSequence(w)
			}
		}
		frozen := markov.Freeze(m).(*markov.FrozenTree)
		for _, r := range []*popularity.Ranking{rank, nil} {
			var buf bytes.Buffer
			if err := EncodeSnapshot(&buf, 3, frozen, r); err != nil {
				f.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	tiny, tinyRank := goldenModel(f)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 5, tiny, tinyRank); err != nil {
		f.Fatal(err)
	}
	return append(out, buf.Bytes())
}

// fuzzSeedModels returns frozen models whose images seed the corpus
// beside fuzzSeedSnapshots': trees that are empty, tiny, height-capped,
// a random workload, and one whose root count needs 4-byte counts, each
// with its own clamp height; a PB-PPM-shaped model with a node count
// above its arena's and extra candidates, some on URLs its arena lacks;
// and a blended one.
func fuzzSeedModels() []*markov.FrozenTree {
	empty := markov.NewTree()
	tiny := markov.NewTree()
	tiny.Insert([]string{"/a", "/b"}, 0, 2)
	capped := markov.NewTree()
	capped.Insert([]string{"/a", "/b", "/c", "/d"}, 3, 1)
	capped.Insert([]string{"/b", "/c"}, 3, 5)
	random := randomTree(rand.New(rand.NewSource(11)), 120, 0)
	wide := markov.NewTree()
	wide.Insert([]string{"/a", "/b"}, 0, 70_000)
	wide.Insert([]string{"/b", "/c"}, 0, 3)
	var out []*markov.FrozenTree
	for i, tr := range []*markov.Tree{empty, tiny, capped, random, wide} {
		out = append(out, markov.NewFrozenTree(tr.Freeze(), markov.FrozenParams{Name: "PPM", Threshold: 0.25, ClampHeight: i}))
	}
	return append(out,
		markov.NewFrozenTree(tiny.Freeze(), markov.FrozenParams{Name: "PB-PPM", Threshold: 0.25, NodeCount: 4, Links: map[string][]markov.Prediction{
			"/a": {{URL: "/c", Probability: 0.5, Order: 1}},
			"/b": {{URL: "/a", Probability: 0.75, Order: 1}, {URL: "/d", Probability: 0.25, Order: 1}},
		}}),
		markov.NewFrozenTree(random.Freeze(), markov.FrozenParams{Name: "PPM", Threshold: 0.1, Blend: true}))
}

// FuzzDecodeSnapshot hammers the one model file format, the pbppmSN4
// image. Each input is decoded as given and again with its trailing
// CRC recomputed, so mutations reach the field decoders instead of
// stopping at ErrChecksum. Decoding must never panic (corrupt
// snapshots come off disks and sockets); an accepted snapshot must
// have a threshold candidates can pass, predict without panicking,
// grade every URL of its ranking within [0, MaxGrade], and re-encode
// to its input byte for byte (the decoder accepts nothing the encoder
// would not write, so a model travels under one ETag). The seeds
// include images whose links and ranking name URLs their arena lacks.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, img := range fuzzSeedSnapshots(f) {
		f.Add(img)
		for _, cut := range []int{len(snapshotMagic) + 4, len(img) / 2, len(img) - 8} {
			f.Add(img[:cut])
		}
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("garbage"))
	// A ranking of URLs some arenas hold and some lack.
	rank := popularity.NewRanking()
	for i, u := range []string{"/a", "/b", "/d", "/page-ab", "/zz"} {
		rank.Observe(u, int64(i+1))
	}
	for _, m := range fuzzSeedModels() {
		for _, r := range []*popularity.Ranking{nil, rank} {
			var w bytes.Buffer
			if err := EncodeSnapshot(&w, 1, m, r); err != nil {
				f.Fatal(err)
			}
			f.Add(w.Bytes())
			for _, cut := range []int{1, w.Len() / 2} {
				f.Add(w.Bytes()[:cut])
			}
		}
	}
	f.Add([]byte("pbppmAR4"))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodedSnapshot(t, data)
		if len(data) >= 8 {
			sealed := append([]byte(nil), data...)
			resealSnapshot(sealed)
			checkDecodedSnapshot(t, sealed)
		}
	})
}

// checkDecodedSnapshot decodes data and, when it is accepted, checks
// the properties FuzzDecodeSnapshot states.
func checkDecodedSnapshot(t *testing.T, data []byte) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return
	}
	m := snap.Model
	p := m.Params()
	if math.IsNaN(p.Threshold) {
		t.Fatal("accepted a NaN threshold")
	}
	a := m.Arena()
	for s := 1; s <= a.SymbolCount() && s <= 8; s++ {
		u := a.URLOf(uint32(s))
		m.Predict([]string{u})
		m.Predict([]string{"\x00unseen", u})
	}
	for head := range p.Links {
		m.Predict([]string{head})
	}
	m.Predict(nil)
	if snap.Ranking != nil {
		for u, g := range snap.Ranking.Grades() {
			if g < 0 || g > popularity.MaxGrade {
				t.Fatalf("decoded ranking grades %q %d, outside [0, %d]", u, g, popularity.MaxGrade)
			}
		}
	}

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap.Version, m, snap.Ranking); err != nil {
		t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, data) {
		at := 0
		for at < min(len(got), len(data)) && got[at] == data[at] {
			at++
		}
		t.Fatalf("accepted image (%d bytes) re-encodes to %d bytes, first differing at %d:\n got % x\nwant % x",
			len(data), len(got), at, got[at:min(at+16, len(got))], data[at:min(at+16, len(data))])
	}
}

// countOffsets walks a snapshot image of a model with rule-3 links and
// a ranking, and returns where its link head count, its first head's
// candidate count and its ranking URL count start.
func countOffsets(t *testing.T, img []byte) (heads, candidates, urls int) {
	t.Helper()
	snap, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	a := snap.Model.Arena()
	body := img[:len(img)-8]
	r := snapshotReader{rest: body[len(snapshotMagic)+8:]}
	at := func() int { return len(body) - len(r.rest) }
	r.string()
	r.float()
	r.int()
	r.int()
	r.flag()
	r.next(r.int())
	heads = at()
	for i, n := 0, r.count(); i < n; i++ {
		r.url(a)
		if i == 0 {
			candidates = at()
		}
		for j, m := 0, r.count(); j < m; j++ {
			r.url(a)
			r.float()
			r.int()
		}
	}
	if !r.flag() || r.err != nil || candidates == 0 {
		t.Fatalf("image has no links or no ranking (%v)", r.err)
	}
	return heads, candidates, at()
}

// TestSnapshotSectionsBoundCorruptCounts: a PB-PPM link table, one
// head's candidate list or a ranking whose entry count is corrupted to
// 1<<26 fails to decode without allocating for the claimed entries:
// every count is checked against the bytes left first.
func TestSnapshotSectionsBoundCorruptCounts(t *testing.T) {
	rank := popularity.NewRanking()
	rank.Observe("/only", 3)
	m := core.New(popularity.FixedGrades{"/h": 3, "/x": 1, "/y": 3}, core.Config{})
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"/h", "/x", "/y"})
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 1, m.Freeze().(*markov.FrozenTree), rank); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	heads, candidates, urls := countOffsets(t, img)
	for _, c := range []struct {
		name string
		at   int
	}{{"links", heads}, {"candidates", candidates}, {"ranking", urls}} {
		_, n := binary.Uvarint(img[c.at:])
		bad := append(binary.AppendUvarint(append([]byte{}, img[:c.at]...), 1<<26), img[c.at+n:]...)
		resealSnapshot(bad)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: inflated count accepted", c.name)
		} else if !strings.Contains(err.Error(), "count") {
			t.Errorf("%s: refused for another reason than the count: %v", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s: decoding allocated %d MiB", c.name, grew>>20)
		}
	}
}
