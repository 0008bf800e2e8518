package markov

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomArenaTree builds a tree from a Zipf-ish random workload, the
// same shape the compact-layout equivalence test uses.
func randomArenaTree(rng *rand.Rand, seqs, maxDepth int) *Tree {
	urls := make([]string, 40)
	for i := range urls {
		urls[i] = url(i)
	}
	tr := NewTree()
	for i := 0; i < seqs; i++ {
		s := make([]string, rng.Intn(7)+1)
		for j := range s {
			s[j] = urls[rng.Intn(rng.Intn(len(urls))+1)]
		}
		tr.Insert(s, maxDepth, int64(rng.Intn(3)+1))
	}
	return tr
}

// TestFreezeEquivalence is the golden suite of the arena change: a
// frozen tree must reproduce the pointer tree's longest match and
// predictions bit for bit, across random contexts and every threshold
// the models use. This is what lets the maintenance loop publish the
// arena in place of the tree without moving any headline metric.
func TestFreezeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5; round++ {
		tr := randomArenaTree(rng, 800, round%3)
		a := tr.Freeze()

		if got, want := a.NodeCount(), tr.NodeCount(); got != want {
			t.Fatalf("round %d: arena NodeCount = %d, tree %d", round, got, want)
		}

		ctxURLs := make([]string, 0, 41)
		ctxURLs = append(ctxURLs, "/not-in-training")
		for i := 0; i < 40; i++ {
			ctxURLs = append(ctxURLs, url(i))
		}
		var buf []Prediction
		for i := 0; i < 2000; i++ {
			ctx := make([]string, rng.Intn(6))
			for j := range ctx {
				ctx[j] = ctxURLs[rng.Intn(len(ctxURLs))]
			}
			threshold := []float64{0, 0.1, 0.25, 0.6}[i%4]

			tn, torder := tr.LongestMatch(ctx)
			an, aorder, aok := a.LongestMatch(ctx)
			if (tn == nil) == aok || (aok && torder != aorder) {
				t.Fatalf("round %d ctx %v: tree order %d (nil=%v), arena order %d (ok=%v)",
					round, ctx, torder, tn == nil, aorder, aok)
			}

			want := tr.CandidatesFrom(tn, threshold, torder)
			got := a.PredictInto(ctx, threshold, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d ctx %v thr %v:\n got %+v\nwant %+v", round, ctx, threshold, got, want)
			}
			// The buffered path must agree with the allocating path.
			buf = a.PredictInto(ctx, threshold, buf)
			if len(buf) > 0 && !reflect.DeepEqual([]Prediction(buf), want) {
				t.Fatalf("round %d ctx %v thr %v: buffered path diverged", round, ctx, threshold)
			}

			if an2, ok2 := a.Match(ctx); ok2 {
				if mn := tr.Match(ctx); mn == nil || mn.Count != a.Count(an2) {
					t.Fatalf("round %d ctx %v: arena Match disagrees with tree", round, ctx)
				}
			} else if mn := tr.Match(ctx); mn != nil {
				t.Fatalf("round %d ctx %v: tree matches, arena does not", round, ctx)
			}
			_ = an
		}
	}
}

// TestFreezeStatsEquivalence checks that the arena reproduces the
// pointer tree's structural statistics (everything except the byte
// estimate, which legitimately shrinks).
func TestFreezeStatsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		tr := randomArenaTree(rng, 500, round%3)
		ts, as := tr.Stats(), tr.Freeze().Stats()
		as.Bytes, ts.Bytes = 0, 0
		if !reflect.DeepEqual(as, ts) {
			t.Fatalf("round %d stats diverged:\n tree  %+v\n arena %+v", round, ts, as)
		}
	}
}

// TestFreezeCanonicalLayout: two trees with the same logical content —
// built in different insertion orders, and one assembled via Merge —
// must freeze to byte-identical images. The canonical layout is what
// makes the arena round-trip byte-exact and snapshot diffs meaningful.
func TestFreezeCanonicalLayout(t *testing.T) {
	seqs := [][]string{
		{"/a", "/b", "/c"},
		{"/a", "/b"},
		{"/z", "/a"},
		{"/m", "/n", "/a", "/b"},
	}
	build := func(order []int) *Tree {
		tr := NewTree()
		for _, i := range order {
			tr.Insert(seqs[i], 0, 1)
		}
		return tr
	}
	fwd := build([]int{0, 1, 2, 3}).Freeze()
	rev := build([]int{3, 2, 1, 0}).Freeze()
	if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
		t.Fatal("insertion order leaked into the frozen image")
	}
	half1, half2 := build([]int{0, 1}), build([]int{2, 3})
	half1.Merge(half2)
	if !bytes.Equal(fwd.Bytes(), half1.Freeze().Bytes()) {
		t.Fatal("merge-built tree froze to a different image")
	}
}

// TestArenaWireRoundTrip: encoding an arena to wire format v2 and
// decoding it back must reproduce the exact image, so persisted
// snapshots revive bit-identical.
func TestArenaWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := randomArenaTree(rng, 600, 0).Freeze()
	var w bytes.Buffer
	if err := a.Encode(&w); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArena(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("wire round-trip changed the arena image")
	}
}

// TestArenaBytesReattach: ArenaFromBytes over a copied image must
// accept it and serve identical predictions — the relocatability
// guarantee (the image can cross a file or shared mapping).
func TestArenaBytesReattach(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomArenaTree(rng, 400, 0).Freeze()
	img := make([]byte, len(a.Bytes()))
	copy(img, a.Bytes())
	b, err := ArenaFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []string{url(1), url(2)}
	if !reflect.DeepEqual(a.PredictInto(ctx, 0, nil), b.PredictInto(ctx, 0, nil)) {
		t.Fatal("reattached arena predicts differently")
	}
	// Deliberately misaligned view: the loader must copy, not crash.
	mis := make([]byte, len(img)+1)
	copy(mis[1:], img)
	c, err := ArenaFromBytes(mis[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PredictInto(ctx, 0, nil), c.PredictInto(ctx, 0, nil)) {
		t.Fatal("misaligned reattach predicts differently")
	}
}

// corruptingEdit describes one targeted corruption that the validator
// must reject with an error (never a panic).
type corruptingEdit struct {
	name string
	edit func(img []byte, a *Arena)
}

// TestArenaFromBytesRejectsCorrupt drives the validator with targeted
// corruptions of every section plus exhaustive truncations. A corrupt
// snapshot must never panic the loader — it is the crash-safety story
// for reviving images from disk.
func TestArenaFromBytesRejectsCorrupt(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 2)
	tr.Insert([]string{"/b", "/c"}, 0, 1)
	a := tr.Freeze()
	valid := a.Bytes()

	hdr := len(arenaMagic)
	edits := []corruptingEdit{
		{"bad magic", func(img []byte, _ *Arena) { img[0] = 'X' }},
		{"corrupt byte-order mark", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+i] = 0
			}
		}},
		{"zero nodes", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+8+i] = 0
			}
		}},
		{"huge nodes", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+8+i] = 0xFF
			}
		}},
		{"huge syms", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+16+i] = 0xFF
			}
		}},
		{"huge urlbytes", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+24+i] = 0xFF
			}
		}},
		{"root child block not at 1", func(img []byte, a *Arena) {
			off := childOffByteOffset(a, 0)
			img[off] = 2
		}},
		{"child block before parent", func(img []byte, a *Arena) {
			off := childOffByteOffset(a, 1)
			img[off] = 0
		}},
		{"root symbol nonzero", func(img []byte, a *Arena) {
			off := symByteOffset(a, 0)
			img[off] = 1
		}},
		{"symbol out of range", func(img []byte, a *Arena) {
			off := symByteOffset(a, 1)
			img[off] = 0xEE
		}},
		{"negative count", func(img []byte, a *Arena) {
			off := countByteOffset(a, 1)
			img[off+7] = 0x80
		}},
	}
	for _, e := range edits {
		img := make([]byte, len(valid))
		copy(img, valid)
		e.edit(img, a)
		if _, err := ArenaFromBytes(img); err == nil {
			t.Errorf("%s: corrupt image accepted", e.name)
		}
	}

	for cut := 0; cut < len(valid); cut++ {
		if _, err := ArenaFromBytes(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Single-byte flips must never panic; whether they error depends on
	// which field they hit (a count flip yields a different valid image).
	for i := 0; i < len(valid); i++ {
		img := make([]byte, len(valid))
		copy(img, valid)
		img[i] ^= 0xFF
		_, _ = ArenaFromBytes(img)
	}
}

// Byte offsets of individual fields inside an arena image, derived from
// the same layout function the implementation uses.
func countByteOffset(a *Arena, node int) int {
	countsOff, _, _, _, _, _ := arenaLayout(uint64(len(a.counts)), uint64(a.SymbolCount()), uint64(len(a.symBytes)))
	return int(countsOff) + node*8
}

func symByteOffset(a *Arena, node int) int {
	_, symsOff, _, _, _, _ := arenaLayout(uint64(len(a.counts)), uint64(a.SymbolCount()), uint64(len(a.symBytes)))
	return int(symsOff) + node*4
}

func childOffByteOffset(a *Arena, node int) int {
	_, _, childOffOff, _, _, _ := arenaLayout(uint64(len(a.counts)), uint64(a.SymbolCount()), uint64(len(a.symBytes)))
	return int(childOffOff) + node*4
}

// TestFrozenTreeZeroAlloc is the tentpole's acceptance criterion at
// unit level: with a warm buffer, the frozen serving path performs zero
// heap allocations per prediction.
func TestFrozenTreeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomArenaTree(rng, 800, 0)
	f := NewFrozenTree(tr.Freeze(), "test", 0.1, 0)

	ctxs := make([][]string, 64)
	for i := range ctxs {
		ctx := make([]string, rng.Intn(5)+1)
		for j := range ctx {
			ctx[j] = url(rng.Intn(40))
		}
		ctxs[i] = ctx
	}
	var buf []Prediction
	for _, ctx := range ctxs {
		buf = f.PredictInto(ctx, buf)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		buf = f.PredictInto(ctxs[i%len(ctxs)], buf)
		i++
	})
	if allocs != 0 {
		t.Fatalf("frozen PredictInto allocates %v per op, want 0", allocs)
	}
}

// TestLongestMatchDeepContext matches a context far deeper than any
// serving tail: every URL extends the same path, so the match order
// must reach the full depth.
func TestLongestMatchDeepContext(t *testing.T) {
	depth := 100
	seq := make([]string, depth)
	for i := range seq {
		seq[i] = "/loop"
	}
	tr := NewTree()
	tr.Insert(seq, 0, 1)
	a := tr.Freeze()
	_, order, ok := a.LongestMatch(seq)
	if !ok || order != depth {
		t.Fatalf("deep LongestMatch = order %d ok %v, want order %d", order, ok, depth)
	}
}

// referenceLongestMatch is the live-match scan LongestMatch used before
// it streamed through suffix links, kept as the oracle: it carries one
// candidate per context position that starts a root path, extends all
// of them by each URL, and returns the earliest-starting survivor.
func referenceLongestMatch(a *Arena, ctx []string) (node uint32, order int, ok bool) {
	type live struct {
		start int
		node  uint32
	}
	var lives []live
	for i, u := range ctx {
		sym, known := a.ids[u]
		if !known {
			lives = lives[:0]
			continue
		}
		k := 0
		for _, lv := range lives {
			if c, found := a.child(lv.node, sym); found {
				lives[k] = live{start: lv.start, node: c}
				k++
			}
		}
		lives = lives[:k]
		if c, found := a.child(0, sym); found {
			lives = append(lives, live{start: i, node: c})
		}
	}
	if len(lives) == 0 {
		return 0, 0, false
	}
	return lives[0].node, len(ctx) - lives[0].start, true
}

// lastN returns the trailing n elements of ctx (all of it when shorter).
func lastN(ctx []string, n int) []string {
	if len(ctx) > n {
		return ctx[len(ctx)-n:]
	}
	return ctx
}

// checkStreaming steps ctx through a URL by URL under maxOrder and
// checks every intermediate state against the reference scan of the
// prefix's last maxOrder URLs.
func checkStreaming(t *testing.T, a *Arena, ctx []string, maxOrder int) {
	t.Helper()
	node := uint32(0)
	for i, u := range ctx {
		node = a.Step(node, u, maxOrder)
		want, wantOrder, wantOK := referenceLongestMatch(a, lastN(ctx[:i+1], maxOrder))
		if node != want || (wantOK && a.Depth(node) != wantOrder) {
			t.Fatalf("Step over %q (maxOrder %d) = node %d depth %d, reference node %d order %d",
				ctx[:i+1], maxOrder, node, a.Depth(node), want, wantOrder)
		}
		if maxOrder >= i+1 {
			if got, order, ok := a.LongestMatch(ctx[:i+1]); got != want || ok != wantOK || order != wantOrder {
				t.Fatalf("LongestMatch(%q) = %d/%d/%v, reference %d/%d/%v",
					ctx[:i+1], got, order, ok, want, wantOrder, wantOK)
			}
		}
	}
}

// deepArenaTree trains long sessions over a small alphabet, so paths
// run deeper than the 16-URL serving tail and contexts keep matching
// mid-path.
func deepArenaTree(rng *rand.Rand, seqs, alphabet, maxLen int) *Tree {
	tr := NewTree()
	for i := 0; i < seqs; i++ {
		s := make([]string, rng.Intn(maxLen)+1)
		for j := range s {
			s[j] = url(rng.Intn(alphabet))
		}
		tr.Insert(s, 0, int64(rng.Intn(3)+1))
	}
	return tr
}

// randomContext draws a context over the first alphabet URLs, with an
// unseen URL at roughly one position in twelve.
func randomContext(rng *rand.Rand, length, alphabet int) []string {
	ctx := make([]string, length)
	for j := range ctx {
		if rng.Intn(12) == 0 {
			ctx[j] = "/unseen"
		} else {
			ctx[j] = url(rng.Intn(alphabet))
		}
	}
	return ctx
}

// TestStepMatchesReferenceScan is the streaming match's property test:
// on shallow and deeper-than-16 arenas, stepping a context URL by URL
// under any order cap reaches the node the reference scan finds over
// the context's last maxOrder URLs, and an uncapped LongestMatch agrees
// with the reference on every prefix.
func TestStepMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arenas := []*Arena{
		randomArenaTree(rng, 600, 0).Freeze(),
		deepArenaTree(rng, 200, 4, 40).Freeze(),
		deepArenaTree(rng, 300, 12, 24).Freeze(),
	}
	if d := arenas[1].Stats().MaxDepth; d <= 16 {
		t.Fatalf("deep arena has depth %d, want > 16", d)
	}
	for _, a := range arenas {
		for round := 0; round < 150; round++ {
			ctx := randomContext(rng, rng.Intn(40)+1, 12)
			checkStreaming(t, a, ctx, 1+rng.Intn(20))
			checkStreaming(t, a, ctx, len(ctx))
		}
	}
}

// TestFrozenTreeStreamingMatchesPredictInto pins the FrozenTree half of
// the streaming interface: for clamp heights below, at, and above the
// 16-URL tail, Step then PredictFrom equals PredictInto on the
// context's last 16 URLs, on an arena deeper than 16.
func TestFrozenTreeStreamingMatchesPredictInto(t *testing.T) {
	const tail = 16
	rng := rand.New(rand.NewSource(9))
	a := deepArenaTree(rng, 250, 5, 40).Freeze()
	for _, clamp := range []int{0, 1, 2, 4, tail, tail + 1, 30} {
		f := NewFrozenTree(a, "test", 0.05, clamp)
		for round := 0; round < 200; round++ {
			ctx := randomContext(rng, rng.Intn(45)+1, 6)
			node := uint32(0)
			for _, u := range ctx {
				node = f.Step(node, u, tail)
			}
			got := f.PredictFrom(node, ctx[len(ctx)-1], tail, nil)
			want := f.PredictInto(lastN(ctx, tail), nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("clamp %d, context %q: streamed %+v, PredictInto %+v", clamp, ctx, got, want)
			}
		}
	}
}

// TestFrozenTreeClampsHeight mirrors the height-capped models: a
// clampHeight-H frozen tree must only consider the trailing H-1 URLs.
func TestFrozenTreeClampsHeight(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b", "/c"}, 3, 1)
	f := NewFrozenTree(tr.Freeze(), "3-test", 0, 3)
	got := f.Predict([]string{"/x", "/a", "/b"})
	if len(got) != 1 || got[0].URL != "/c" {
		t.Fatalf("clamped predict = %+v, want /c", got)
	}
}

// TestFrozenTreeTrainPanics pins the immutability contract.
func TestFrozenTreeTrainPanics(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a"}, 0, 1)
	f := NewFrozenTree(tr.Freeze(), "test", 0, 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("TrainSequence on a frozen model did not panic")
		} else if !strings.Contains(r.(string), "frozen") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	f.TrainSequence([]string{"/a"})
}

// byteSwapArenaImage rewrites a valid arena image as a machine of the
// opposite endianness would have written it: every fixed-width field —
// the four header words, the int64 counts, and the uint32 sections —
// is byte-reversed in place. Magic and URL bytes are endian-neutral.
func byteSwapArenaImage(img []byte, a *Arena) {
	numNodes := uint64(len(a.counts))
	numSyms := uint64(a.SymbolCount())
	countsOff, symsOff, childOffOff, symOffOff, symBytesOff, _ :=
		arenaLayout(numNodes, numSyms, uint64(len(a.symBytes)))
	swap := func(off, width, n uint64) {
		for i := uint64(0); i < n; i++ {
			f := img[off+i*width : off+(i+1)*width]
			for l, r := 0, int(width)-1; l < r; l, r = l+1, r-1 {
				f[l], f[r] = f[r], f[l]
			}
		}
	}
	swap(uint64(len(arenaMagic)), 8, 4) // BOM + 3 dims
	swap(countsOff, 8, numNodes)
	swap(symsOff, 4, numNodes)
	swap(childOffOff, 4, numNodes+1)
	swap(symOffOff, 4, numSyms+1)
	_ = symBytesOff // URL bytes carry no endianness
}

// TestArenaFromBytesRejectsForeignEndianness pins the cross-machine
// hardening: an image written on an opposite-endian machine — which
// under the old host-endian header would have been misread through
// byte-swapped offsets — is refused with an explicit byte-order error.
func TestArenaFromBytesRejectsForeignEndianness(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 2)
	tr.Insert([]string{"/b", "/c"}, 0, 1)
	a := tr.Freeze()

	img := make([]byte, len(a.Bytes()))
	copy(img, a.Bytes())
	byteSwapArenaImage(img, a)

	_, err := ArenaFromBytes(img)
	if err == nil {
		t.Fatal("byte-swapped arena image accepted")
	}
	if !strings.Contains(err.Error(), "byte order") {
		t.Fatalf("byte-swapped image rejected without a byte-order diagnosis: %v", err)
	}

	// Round-trip sanity: the unswapped image still attaches.
	if _, err := ArenaFromBytes(a.Bytes()); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
}
