package maintain

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot image")

// pageURL names the i-th of the synthetic pages randomTree draws from.
func pageURL(i int) string {
	return "/page-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// randomTree trains seqs random walks of 1 to 7 clicks over 40 pages,
// skewed toward the first pages, into a tree of at most maxDepth
// levels (0 for unbounded).
func randomTree(rng *rand.Rand, seqs, maxDepth int) *markov.Tree {
	tr := markov.NewTree()
	for i := 0; i < seqs; i++ {
		s := make([]string, rng.Intn(7)+1)
		for j := range s {
			s[j] = pageURL(rng.Intn(rng.Intn(40) + 1))
		}
		tr.Insert(s, maxDepth, int64(rng.Intn(3)+1))
	}
	return tr
}

// encodeModel returns the snapshot image of f without a ranking.
func encodeModel(t *testing.T, f *markov.FrozenTree) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := EncodeSnapshot(&w, 0, f, nil); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// decodeModel revives the model of a snapshot image.
func decodeModel(t *testing.T, img []byte) *markov.FrozenTree {
	t.Helper()
	snap, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Model
}

// rawSnapshot lays out an image from serving parameters that
// NewFrozenTree would not let a model hold, beside an arena.
func rawSnapshot(t *testing.T, p markov.FrozenParams, arena *markov.Arena) []byte {
	t.Helper()
	img, err := snapshotBytes(0, p, arena, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFrozenTreeSnapshotRoundTrip: encoding a frozen tree and decoding
// it must reproduce identical predictions — the invariant the
// snapshot-distribution channel rests on.
func TestFrozenTreeSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTree(rng, 600, 0)
	f := markov.NewFrozenTree(tr.Freeze(), markov.FrozenParams{Name: "PPM-test", Threshold: 0.1, ClampHeight: 5})

	got := decodeModel(t, encodeModel(t, f))
	if got.Name() != "PPM-test" {
		t.Errorf("decoded name = %q", got.Name())
	}
	for i := 0; i < 500; i++ {
		ctx := make([]string, rng.Intn(6))
		for j := range ctx {
			ctx[j] = pageURL(rng.Intn(40))
		}
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Fatalf("ctx %v: decoded model predicts %+v, original %+v", ctx, have, want)
		}
	}
	// The arena image itself must revive bit-identical.
	if !bytes.Equal(f.Arena().Bytes(), got.Arena().Bytes()) {
		t.Fatal("round trip changed the arena image")
	}
}

// TestDecodedModelKeepsNoneOfItsInput: a decoded model serves the same
// predictions after its input buffer is overwritten, wherever in memory
// the buffer's arena section falls (ArenaFromBytes copies only a
// misaligned image on its own).
func TestDecodedModelKeepsNoneOfItsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := markov.NewFrozenTree(randomTree(rng, 300, 0).Freeze(), markov.FrozenParams{Name: "PPM"})
	img := encodeModel(t, f)
	for shift := 0; shift < 8; shift++ {
		buf := make([]byte, shift+len(img))
		data := buf[shift:]
		copy(data, img)
		got := decodeModel(t, data)
		for i := range buf {
			buf[i] = 0xFF
		}
		for i := 0; i < 40; i++ {
			ctx := []string{pageURL(i)}
			if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
				t.Fatalf("shift %d, ctx %v: after its input was overwritten the model predicts %+v, want %+v", shift, ctx, have, want)
			}
		}
	}
}

// TestDecodeFrozenModelRejectsCorrupt: truncated images, and a valid
// image carrying a corrupted arena — for a longest-match and a blended
// model — must all error (never panic).
func TestDecodeFrozenModelRejectsCorrupt(t *testing.T) {
	tr := markov.NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	valid := encodeModel(t, markov.NewFrozenTree(tr.Freeze(), markov.FrozenParams{Name: "t"}))

	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := DecodeSnapshot(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Corrupt the arena inside an otherwise valid image: replace it,
	// after its one-byte length, and reseal the trailer.
	junk := []byte("pbppmAR4 not really an arena")
	for _, blend := range []bool{false, true} {
		f := markov.NewFrozenTree(tr.Freeze(), markov.FrozenParams{Name: "t", Blend: blend})
		img, arena := encodeModel(t, f), f.Arena().Bytes()
		at := bytes.Index(img, arena)
		bad := append(append(append([]byte{}, img[:at-1]...), byte(len(junk))), junk...)
		bad = append(bad, img[at+len(arena):]...)
		resealSnapshot(bad)
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("corrupt embedded arena accepted (blend %v)", blend)
		}
	}
}

// TestEncodeDecode: a trained tree's one encoding is its frozen image.
// Decoding it must give back every trained path with its count, the
// same node and root counts, and the same predictions.
func TestEncodeDecode(t *testing.T) {
	tr := markov.NewTree()
	tr.Insert([]string{"a", "b", "c"}, 0, 3)
	tr.Insert([]string{"a", "d"}, 0, 1)
	tr.Insert([]string{"z"}, 0, 7)

	f := markov.NewFrozenTree(tr.Freeze(), markov.FrozenParams{Name: "tree"})
	got := decodeModel(t, encodeModel(t, f))
	a := got.Arena()
	if a.NodeCount() != tr.NodeCount() || a.Count(0) != tr.Root.Count {
		t.Errorf("counts differ after round trip: %d nodes, root %d; want %d, %d",
			a.NodeCount(), a.Count(0), tr.NodeCount(), tr.Root.Count)
	}
	tr.Walk(func(path []string, n *markov.Node) {
		node, ok := a.Match(path)
		if !ok {
			t.Errorf("path %v lost in round trip", path)
			return
		}
		if a.Count(node) != n.Count {
			t.Errorf("path %v: count %d after round trip, want %d", path, a.Count(node), n.Count)
		}
	})
	for _, ctx := range [][]string{{"a"}, {"a", "b"}, {"z"}, {"x", "a"}, {"q"}} {
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Errorf("ctx %v: decoded model predicts %+v, original %+v", ctx, have, want)
		}
	}
}

// TestEncodeDecodeEmptyTree: an untrained tree still freezes to a valid
// image (the pseudo-root alone) that survives the snapshot codec and
// predicts nothing.
func TestEncodeDecodeEmptyTree(t *testing.T) {
	f := markov.NewFrozenTree(markov.NewTree().Freeze(), markov.FrozenParams{Name: "empty", Threshold: 0.25})
	got := decodeModel(t, encodeModel(t, f))
	if got.NodeCount() != 0 {
		t.Errorf("decoded empty tree has %d nodes", got.NodeCount())
	}
	if ps := got.Predict([]string{"/a"}); len(ps) != 0 {
		t.Errorf("decoded empty tree predicts %+v", ps)
	}
	if !bytes.Equal(f.Arena().Bytes(), got.Arena().Bytes()) {
		t.Fatal("round trip changed the empty arena image")
	}
}

// TestDecodeError: the decoder refuses bytes that are not a snapshot
// image at all, and every well-formed image whose serving state is
// inconsistent — a NaN threshold, a corrupt extra candidate, or a node
// count below its own arena's. Negative thresholds and clamp heights
// stay accepted: they act as 0 and unbounded.
func TestDecodeError(t *testing.T) {
	for _, junk := range []string{"junk", "pbppmAR4", "\x00\x01\x02"} {
		if _, err := DecodeSnapshot([]byte(junk)); err == nil {
			t.Errorf("DecodeSnapshot(%q) succeeded", junk)
		}
	}
	tr := markov.NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	arena := tr.Freeze()
	link := func(p markov.Prediction) map[string][]markov.Prediction {
		return map[string][]markov.Prediction{"/a": {p}}
	}
	for name, c := range map[string]struct {
		p    markov.FrozenParams
		want string
	}{
		"NaN threshold":    {markov.FrozenParams{NodeCount: 2, Threshold: math.NaN()}, "NaN threshold"},
		"empty link URL":   {markov.FrozenParams{NodeCount: 2, Links: link(markov.Prediction{})}, "corrupt candidate"},
		"NaN link":         {markov.FrozenParams{NodeCount: 2, Links: link(markov.Prediction{URL: "/b", Probability: math.NaN()})}, "corrupt candidate"},
		"negative link":    {markov.FrozenParams{NodeCount: 2, Links: link(markov.Prediction{URL: "/b", Probability: -1})}, "corrupt candidate"},
		"nodes below tree": {markov.FrozenParams{NodeCount: 1}, "node count"},
	} {
		if _, err := DecodeSnapshot(rawSnapshot(t, c.p, arena)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", name, err, c.want)
		}
	}
	ok := markov.FrozenParams{NodeCount: 3, Threshold: -1, ClampHeight: -1,
		Links: link(markov.Prediction{URL: "/c", Probability: 0.5, Order: 1})}
	snap, err := DecodeSnapshot(rawSnapshot(t, ok, arena))
	if err != nil {
		t.Fatalf("consistent image rejected: %v", err)
	}
	f := snap.Model
	want := []markov.Prediction{{URL: "/b", Probability: 1, Order: 1}, {URL: "/c", Probability: 0.5, Order: 1}}
	if got := f.Predict([]string{"/a"}); f.NodeCount() != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("decoded model: %d nodes, predicts %+v; want 3 nodes, %+v", f.NodeCount(), got, want)
	}
}

// TestArenaWireRoundTrip: an arena written through the snapshot codec
// and decoded back must reproduce the exact image, so persisted
// snapshots revive bit-identical.
func TestArenaWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := randomTree(rng, 600, 0).Freeze()
	p := decodeModel(t, encodeModel(t, markov.NewFrozenTree(a, markov.FrozenParams{Name: "arena"})))
	if b := p.Arena(); !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("wire round-trip changed the arena image")
	}
}

// emptyModel is the smallest model a ranking can ship beside.
func emptyModel() *markov.FrozenTree {
	return markov.NewFrozenTree(markov.NewTree().Freeze(), markov.FrozenParams{})
}

// encodeRanking returns the snapshot image of rk beside the empty
// model.
func encodeRanking(t *testing.T, rk *popularity.Ranking) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 0, emptyModel(), rk); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeRanking revives the ranking of a snapshot image.
func decodeRanking(t *testing.T, img []byte) *popularity.Ranking {
	t.Helper()
	snap, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Ranking
}

func TestRankingEncodeDecode(t *testing.T) {
	rk := popularity.NewRanking()
	rk.Observe("/a", 1000)
	rk.Observe("/b", 10)
	rk.Observe("/c", 1)

	got := decodeRanking(t, encodeRanking(t, rk))
	if got.Len() != 3 || got.MaxCount() != 1000 {
		t.Errorf("Len=%d Max=%d", got.Len(), got.MaxCount())
	}
	for _, u := range []string{"/a", "/b", "/c", "/missing"} {
		if got.GradeOf(u) != rk.GradeOf(u) || got.Count(u) != rk.Count(u) {
			t.Errorf("%s: grade/count drifted after round trip", u)
		}
	}
	// Decoded ranking keeps accepting observations.
	got.Observe("/a", 500)
	if got.Count("/a") != 1500 || got.MaxCount() != 1500 {
		t.Error("decoded ranking did not observe")
	}
}

// TestDecodeRankingError: a ranking section that is not a ranking is
// refused.
func TestDecodeRankingError(t *testing.T) {
	img := encodeRanking(t, nil)
	head := img[:len(img)-8-1] // up to the ranking's presence byte, which ends the body
	bad := append(append([]byte{}, head...), 1)
	bad = append(append(bad, "nope"...), make([]byte, 8)...)
	resealSnapshot(bad)
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("junk accepted")
	}
}

func TestEncodeEmptyRanking(t *testing.T) {
	got := decodeRanking(t, encodeRanking(t, popularity.NewRanking()))
	got.Observe("/x", 1)
	if got.Count("/x") != 1 {
		t.Error("empty round-tripped ranking unusable")
	}
}

// One ranking encodes to the same bytes every time, with its URLs in
// byte order, and decoding an image and encoding it again gives that
// image back.
func TestRankingEncodeDeterministic(t *testing.T) {
	rk := popularity.NewRanking()
	for i := 0; i < 200; i++ {
		rk.Observe(fmt.Sprintf("/u%03d", i*37%200), int64(1+i%13))
	}
	first := encodeRanking(t, rk)
	for i := 0; i < 5; i++ {
		if again := encodeRanking(t, rk); !bytes.Equal(again, first) {
			t.Fatalf("encoding %d differs from the first", i+1)
		}
	}
	// Read the ranking section as the image lays it out. The empty
	// model's arena holds no URL, so each is written as a string.
	r := snapshotReader{rest: first[len(snapshotMagic)+8 : len(first)-8]}
	r.string()
	r.float()
	r.int()
	r.int()
	r.flag()
	r.next(r.int())
	if heads := r.count(); heads != 0 || !r.flag() {
		t.Fatalf("image of the empty model lists %d link heads", heads)
	}
	urls := make([]string, r.count())
	for i := range urls {
		urls[i] = r.url(emptyModel().Arena())
		r.int()
	}
	if r.err != nil || !slices.IsSorted(urls) || len(urls) != 200 {
		t.Errorf("image lists %d URLs, in byte order: %v (%v)", len(urls), slices.IsSorted(urls), r.err)
	}
	if re := encodeRanking(t, decodeRanking(t, first)); !bytes.Equal(re, first) {
		t.Error("decode then re-encode changed the image")
	}
}

// goldenModel is the tiny PB-PPM model and 3-URL ranking whose image
// testdata/pbppm-tiny.snap pins byte for byte.
func goldenModel(tb testing.TB) (*markov.FrozenTree, *popularity.Ranking) {
	tb.Helper()
	m := core.New(popularity.FixedGrades{"/h": 3, "/x": 1, "/y": 3}, core.Config{})
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"/h", "/x", "/y"})
	}
	f := m.Freeze().(*markov.FrozenTree)
	if len(f.Params().Links) == 0 {
		tb.Fatal("fixture produced no rule-3 links")
	}
	rank := popularity.NewRanking()
	rank.Observe("/h", 12)
	rank.Observe("/x", 3)
	rank.Observe("/y", 7)
	return f, rank
}

// TestSnapshotGolden pins the pbppmSN4 layout: the image of a tiny
// PB-PPM model with rule-3 links and a 3-URL ranking must equal the
// committed file byte for byte, and the file must decode. Rewrite it
// with -update only when the layout changes on purpose.
func TestSnapshotGolden(t *testing.T) {
	f, rank := goldenModel(t)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 5, f, rank); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "pbppm-tiny.snap")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("image (%d bytes) differs from %s (%d bytes) from offset %d:\n got % x\nwant % x",
			len(got), path, len(want), at, got[at:min(at+16, len(got))], want[at:min(at+16, len(want))])
	}
	snap, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 5 || snap.Model.NodeCount() != f.NodeCount() || snap.Ranking.Count("/y") != 7 {
		t.Errorf("golden image decodes to v%d, %d nodes, /y counted %d; want v5, %d, 7",
			snap.Version, snap.Model.NodeCount(), snap.Ranking.Count("/y"), f.NodeCount())
	}
}

// TestSnapshotRefusesWhatItNeverWrites: the encoder fails on an integer
// it cannot write in range, and the decoder refuses what the encoder
// never writes — an integer past int32's range or longer than its
// shortest encoding, a flag byte other than 0 or 1, ranking URLs or
// link heads out of byte order or repeated, and bytes after the
// ranking — so one model and ranking have one image.
func TestSnapshotRefusesWhatItNeverWrites(t *testing.T) {
	big := popularity.NewRanking()
	big.Observe("/a", math.MaxInt32+1)
	if err := EncodeSnapshot(io.Discard, 0, emptyModel(), big); err == nil {
		t.Error("a count past int32's range encoded")
	}
	badOrder := markov.FrozenParams{Links: map[string][]markov.Prediction{"/a": {{URL: "/b", Probability: 1, Order: -1}}}}
	if _, err := snapshotBytes(0, badOrder, emptyModel().Arena(), nil); err == nil {
		t.Error("a negative order encoded")
	}

	rank := popularity.NewRanking()
	rank.Observe("/a", 1)
	rank.Observe("/b", 2)
	// Two link heads with one candidate each and a ranking of two URLs,
	// beside the empty model, whose arena holds no URL.
	img, err := snapshotBytes(0, markov.FrozenParams{Links: map[string][]markov.Prediction{
		"/p": {{URL: "/c", Probability: 0.5, Order: 1}},
		"/q": {{URL: "/c", Probability: 0.5, Order: 1}},
	}}, emptyModel().Arena(), rank)
	if err != nil {
		t.Fatal(err)
	}
	// The name, threshold and height cap of the unnamed model take 10
	// bytes after the version; the node count and the blend flag follow.
	nameAt := len(snapshotMagic) + 8
	nodesAt := nameAt + 1 + 8 + 1
	for name, c := range map[string]struct {
		edit func([]byte) []byte
		want string
	}{
		"node count past int32": {func(b []byte) []byte {
			return append(binary.AppendUvarint(append([]byte{}, b[:nodesAt]...), math.MaxInt32+1), b[nodesAt+1:]...)
		}, "int32"},
		"name length 0 in two bytes": {func(b []byte) []byte {
			return append(append(append([]byte{}, b[:nameAt]...), 0x80, 0x00), b[nameAt+1:]...)
		}, "shortest encoding"},
		"blend byte 2": {func(b []byte) []byte {
			b = append([]byte{}, b...)
			b[nodesAt+1] = 2
			return b
		}, "flag byte 2"},
		"ranking byte 2": {func(b []byte) []byte {
			return bytes.Replace(b, []byte("\x01\x02\x00\x02/a"), []byte("\x02\x02\x00\x02/a"), 1)
		}, "flag byte 2"},
		"URLs out of order": {func(b []byte) []byte {
			return bytes.Replace(bytes.Replace(b, []byte("\x02/a\x01"), []byte("\x02/c\x01"), 1), []byte("\x02/b\x02"), []byte("\x02/a\x02"), 1)
		}, "does not follow"},
		"repeated URL": {func(b []byte) []byte {
			return bytes.Replace(b, []byte("\x02/b\x02"), []byte("\x02/a\x02"), 1)
		}, "does not follow"},
		"trailing byte": {func(b []byte) []byte {
			return append(append(append([]byte{}, b[:len(b)-8]...), 0), b[len(b)-8:]...)
		}, "trailing"},
		"link heads out of order": {func(b []byte) []byte {
			return bytes.Replace(b, []byte("\x00\x02/p"), []byte("\x00\x02/r"), 1)
		}, "does not follow"},
		"repeated link head": {func(b []byte) []byte {
			return bytes.Replace(b, []byte("\x00\x02/p"), []byte("\x00\x02/q"), 1)
		}, "does not follow"},
	} {
		bad := c.edit(img)
		if bytes.Equal(bad, img) {
			t.Fatalf("%s: the edit changed nothing", name)
		}
		resealSnapshot(bad)
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", name, err, c.want)
		}
	}
}

// TestSnapshotNamesURLsOnce: the link table and the ranking name a URL
// the arena holds by its symbol id and write a string only for one the
// arena lacks, and the decoder refuses a symbol id past the arena's and
// a string for a URL the arena holds, so each URL has one spelling.
func TestSnapshotNamesURLsOnce(t *testing.T) {
	tr := markov.NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	f := markov.NewFrozenTree(tr.Freeze(), markov.FrozenParams{Links: map[string][]markov.Prediction{
		"/a": {{URL: "/z", Probability: 0.5, Order: 1}},
	}})
	rank := popularity.NewRanking()
	rank.Observe("/b", 5)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 0, f, rank); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// After the arena, whose symbols 1 and 2 are /a and /b: one link
	// head, symbol 1, with one candidate, the string /z, probability
	// 0.5 and order 1; then a ranking of one URL, symbol 2, counted 5.
	links := append([]byte{1, 1, 1, 0, 2, '/', 'z'}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))...)
	tail := append(append(links, 1), 1, 1, 2, 5)
	if body := img[:len(img)-8]; !bytes.HasSuffix(body, tail) {
		t.Fatalf("image ends % x, want % x", body[max(0, len(body)-len(tail)):], tail)
	}
	edit := func(at int, with ...byte) []byte {
		at += len(img) - 8 - len(tail)
		bad := append(append(append([]byte{}, img[:at]...), with...), img[at+1:]...)
		resealSnapshot(bad)
		return bad
	}
	for _, c := range []struct {
		name string
		img  []byte
		want string
	}{
		{"head symbol past the arena", edit(1, 3), "past the arena"},
		{"ranking symbol past the arena", edit(len(tail)-2, 3), "past the arena"},
		{"head held by the arena as a string", edit(1, 0, 2, '/', 'a'), "the arena holds it"},
		{"ranking URL held by the arena as a string", edit(len(tail)-2, 0, 2, '/', 'b'), "the arena holds it"},
	} {
		if _, err := DecodeSnapshot(c.img); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
	snap, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Model.Params().Links; !reflect.DeepEqual(got, f.Params().Links) || snap.Ranking.Count("/b") != 5 {
		t.Errorf("decoded links %+v and /b counted %d, want %+v and 5", got, snap.Ranking.Count("/b"), f.Params().Links)
	}
}
