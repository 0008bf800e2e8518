package maintain

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"runtime"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
)

// olderRankingImage is the ranking image of builds that let a caller
// choose the grade scale: the current fields plus Base and Grades.
type olderRankingImage struct {
	URLs   []string
	Counts []int64
	Base   float64
	Grades int
}

// withOlderRanking returns img, a snapshot written without a ranking,
// with r in the older layout as its ranking section.
func withOlderRanking(f *testing.F, img []byte, r olderRankingImage) []byte {
	var rankBuf bytes.Buffer
	if err := gob.NewEncoder(&rankBuf).Encode(r); err != nil {
		f.Fatal(err)
	}
	out := append([]byte(nil), img[:len(img)-16]...) // up to the ranking length
	out = binary.BigEndian.AppendUint64(out, uint64(rankBuf.Len()))
	out = append(out, rankBuf.Bytes()...)
	out = append(out, make([]byte, 8)...)
	resealSnapshot(out)
	if _, err := DecodeSnapshot(out); err != nil {
		f.Fatalf("snapshot with an older ranking image: %v", err)
	}
	return out
}

// fuzzSeedSnapshots returns snapshot images of every model the
// repository publishes — PB-PPM with its rule-3 links, 3-PPM, LRS and
// blended PPM — each with and without a ranking, and PB-PPM's once more
// with a ranking in the older layout on a custom scale.
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
	older := olderRankingImage{Base: 2, Grades: 7}
	for _, u := range rank.Top(rank.Len()) {
		older.URLs = append(older.URLs, u)
		older.Counts = append(older.Counts, rank.Count(u))
	}
	// out[1] is PB-PPM's image without a ranking.
	return append(out, withOlderRanking(f, out[1], older))
}

// FuzzDecodeSnapshot hammers the one model file format — the pbppmSN2
// envelope and, behind it, the ranking and frozen-model decoders. Each
// input is decoded as given and again with its trailing CRC
// recomputed, so mutations reach the section decoders instead of
// stopping at ErrChecksum. Decoding must never panic; an accepted
// snapshot must predict without panicking, grade every URL of its
// ranking within [0, MaxGrade], and re-encode to one with the same
// version, name, node count and arena image.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, img := range fuzzSeedSnapshots(f) {
		f.Add(img)
		for _, cut := range []int{len(snapshotMagic) + 4, len(img) / 2, len(img) - 8} {
			f.Add(img[:cut])
		}
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("garbage"))

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
	a := m.Arena()
	for s := 1; s <= a.SymbolCount() && s <= 4; s++ {
		u := a.URLOf(uint32(s))
		m.Predict([]string{u})
		m.Predict([]string{"\x00unseen", u})
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
	again, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("re-decoding an accepted snapshot failed: %v", err)
	}
	if again.Version != snap.Version || again.Model.Name() != m.Name() || again.Model.NodeCount() != m.NodeCount() {
		t.Fatalf("round trip changed the snapshot: v%d %q %d nodes, want v%d %q %d nodes",
			again.Version, again.Model.Name(), again.Model.NodeCount(), snap.Version, m.Name(), m.NodeCount())
	}
	if !bytes.Equal(again.Model.Arena().Bytes(), a.Bytes()) {
		t.Fatal("round trip changed the arena image")
	}
}

// inflateCount rewrites, in the last message of gob stream img, the
// one-element count that directly precedes marker to n, and re-frames
// the message: a corrupt length field the trailing CRC would not catch
// once resealed.
func inflateCount(t *testing.T, img []byte, marker []byte, n uint64) []byte {
	t.Helper()
	readUint := func(b []byte) (uint64, int) {
		if b[0] < 0x80 {
			return uint64(b[0]), 1
		}
		k := int(-int8(b[0]))
		var v uint64
		for _, c := range b[1 : 1+k] {
			v = v<<8 | uint64(c)
		}
		return v, 1 + k
	}
	encUint := func(v uint64) []byte {
		if v < 0x80 {
			return []byte{byte(v)}
		}
		var be []byte
		for ; v > 0; v >>= 8 {
			be = append([]byte{byte(v)}, be...)
		}
		return append([]byte{byte(-int8(len(be)))}, be...)
	}
	last := 0
	for off := 0; off < len(img); {
		size, k := readUint(img[off:])
		last, off = off, off+k+int(size)
	}
	_, k := readUint(img[last:])
	body := img[last+k:]
	at := bytes.Index(body, marker)
	if at < 1 || body[at-1] != 1 {
		t.Fatalf("no one-element count before %q", marker)
	}
	patched := append(append(append([]byte{}, body[:at-1]...), encUint(n)...), body[at:]...)
	return append(append(append([]byte{}, img[:last]...), encUint(uint64(len(patched)))...), patched...)
}

// TestSnapshotSectionsBoundCorruptCounts: a ranking or PB-PPM link
// table whose entry count is corrupted to 1<<26 fails to decode without
// allocating for the claimed entries. Gob sizes a map from that count
// up front (about 2 GiB here); both tables travel as slices, which
// grow only as entries arrive.
func TestSnapshotSectionsBoundCorruptCounts(t *testing.T) {
	rank := popularity.NewRanking()
	rank.Observe("/only", 3)
	var rankImg bytes.Buffer
	if err := rank.Encode(&rankImg); err != nil {
		t.Fatal(err)
	}
	m := core.New(popularity.FixedGrades{"/h": 3, "/x": 1, "/y": 3}, core.Config{})
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"/h", "/x", "/y"})
	}
	var modelImg bytes.Buffer
	if err := m.Freeze().(*markov.FrozenTree).EncodeFrozen(&modelImg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, marker string
		img          []byte
		decode       func(io.Reader) error
	}{
		{"ranking", "\x05/only", rankImg.Bytes(), func(r io.Reader) error {
			_, err := popularity.DecodeRanking(r)
			return err
		}},
		{"links", "\x01\x02/h", modelImg.Bytes(), func(r io.Reader) error {
			_, err := markov.DecodeFrozen(r)
			return err
		}},
	} {
		bad := inflateCount(t, c.img, []byte(c.marker), 1<<26)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(bytes.NewReader(bad))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: inflated count accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s: decoding allocated %d MiB", c.name, grew>>20)
		}
	}
}
