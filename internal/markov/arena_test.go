package markov

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// randomArenaTree builds a tree from a Zipf-ish random workload, the
// same shape the compact-layout equivalence test uses, and trains each
// of refs on the same sequences.
func randomArenaTree(rng *rand.Rand, seqs, maxDepth int, refs ...*refTree) *Tree {
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
		w := int64(rng.Intn(3) + 1)
		tr.Insert(s, maxDepth, w)
		for _, ref := range refs {
			ref.insert(s, maxDepth, w)
		}
	}
	return tr
}

// TestFreezeEquivalence is the golden suite of the arena change: a
// frozen tree must reproduce the longest match and predictions of the
// map-based reference trie (refTree) trained on the same sequences, bit
// for bit, across random contexts and every threshold the models use.
// This is what lets every model predict from its arena without moving
// any headline metric.
func TestFreezeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5; round++ {
		ref := newRefTree()
		tr := randomArenaTree(rng, 800, round%3, ref)
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

			tn, torder := ref.longestMatch(ctx)
			an, aorder, aok := a.LongestMatch(ctx)
			if (tn == nil) == aok || (aok && torder != aorder) {
				t.Fatalf("round %d ctx %v: reference order %d (nil=%v), arena order %d (ok=%v)",
					round, ctx, torder, tn == nil, aorder, aok)
			}

			want := ref.predictFrom(tn, threshold, torder)
			f := NewFrozenTree(a, FrozenParams{Threshold: threshold})
			got := f.PredictInto(ctx, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d ctx %v thr %v:\n got %+v\nwant %+v", round, ctx, threshold, got, want)
			}
			// The buffered path must agree with the allocating path.
			buf = f.PredictInto(ctx, buf)
			if len(buf) > 0 && !reflect.DeepEqual([]Prediction(buf), want) {
				t.Fatalf("round %d ctx %v thr %v: buffered path diverged", round, ctx, threshold)
			}

			if an2, ok2 := a.Match(ctx); ok2 {
				if mn := ref.match(ctx); mn == nil || mn.count != a.Count(an2) {
					t.Fatalf("round %d ctx %v: arena Match disagrees with reference", round, ctx)
				}
			} else if mn := ref.match(ctx); mn != nil {
				t.Fatalf("round %d ctx %v: reference matches, arena does not", round, ctx)
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
// built in different insertion orders, and one frozen after half of it
// and then trained with the other half — must freeze to byte-identical
// images. The canonical layout is what makes the arena round-trip
// byte-exact and snapshot diffs meaningful.
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
	delta := build([]int{2, 3})
	delta.Freeze()
	for _, i := range []int{0, 1} {
		delta.Insert(seqs[i], 0, 1)
	}
	if !bytes.Equal(fwd.Bytes(), delta.Freeze().Bytes()) {
		t.Fatal("a tree trained after a freeze froze to a different image")
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
	predict := func(a *Arena) []Prediction { return NewFrozenTree(a, FrozenParams{}).Predict(ctx) }
	if !reflect.DeepEqual(predict(a), predict(b)) {
		t.Fatal("reattached arena predicts differently")
	}
	// Deliberately misaligned view: the loader must copy, not crash.
	mis := make([]byte, len(img)+1)
	copy(mis[1:], img)
	c, err := ArenaFromBytes(mis[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(predict(a), predict(c)) {
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

	// Header fields: the widths at 8 and 9, two zero bytes at 10 and 11,
	// then the uint32 dimensions at 12, 16 and 20.
	setUint32 := func(img []byte, at int, v uint32) { binary.LittleEndian.PutUint32(img[at:], v) }
	edits := []corruptingEdit{
		{"bad magic", func(img []byte, _ *Arena) { img[0] = 'X' }},
		{"bad count width", func(img []byte, _ *Arena) { img[8] = 3 }},
		{"ids wider than needed", func(img []byte, _ *Arena) { img[9] = 4 }},
		{"nonzero header byte 10", func(img []byte, _ *Arena) { img[10] = 1 }},
		{"nonzero header byte 11", func(img []byte, _ *Arena) { img[11] = 1 }},
		{"zero nodes", func(img []byte, _ *Arena) { setUint32(img, 12, 0) }},
		{"huge nodes", func(img []byte, _ *Arena) { setUint32(img, 12, 0xFFFFFFFF) }},
		{"huge syms", func(img []byte, _ *Arena) { setUint32(img, 16, 0xFFFFFFFF) }},
		{"more URLs than nodes", func(img []byte, _ *Arena) { setUint32(img, 16, 5) }},
		{"huge urlbytes", func(img []byte, _ *Arena) { setUint32(img, 20, 0xFFFFFFFF) }},
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
		// Node 4 is /b/c; as /b/a it leaves /c on no node, and no tree
		// freezes a URL it does not hold.
		{"symbol that labels no node", func(img []byte, a *Arena) {
			off := symByteOffset(a, 4)
			img[off] = 1
		}},
		// Node 4 is /b/c under /b (count 1); 2 stays below the root's 3,
		// so only the parent rule can refuse it.
		{"count above its parent's", func(img []byte, a *Arena) {
			off := countByteOffset(a, 4)
			img[off] = 2
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

	// The URL table, on a tree with a second restart (URL 17) whose URL
	// shares a prefix with the one before it. The edits of a shorter
	// shared length, a restart and an overlong uvarint spell every URL
	// as it was, so only the table's encoding rules can refuse them.
	pre := prefixTree().Freeze().Bytes()
	entries := urlTable(pre)
	url0 := entries[0].suffix
	tableStart := int(readArenaHeader(pre).layout().urls)
	for _, c := range []struct {
		name string
		img  []byte
		want string
	}{
		{"shared length longer than the URL before it", withURLTable(pre, func(e []tableEntry) {
			e[1].shared = len(url0) + 1
		}), "shares"},
		{"shared length shorter than the common prefix", withURLTable(pre, func(e []tableEntry) {
			e[1].suffix = url0[e[1].shared-1:e[1].shared] + e[1].suffix
			e[1].shared--
		}), "fewer than it has in common"},
		{"shared length at a restart", withURLTable(pre, func(e []tableEntry) {
			urls := decodeTable(e)
			n := commonPrefix(urls[15], urls[16])
			e[16] = tableEntry{n, urls[16][n:]}
		}), "restarts the table"},
		// URL 1's shared length, 0, in two bytes.
		{"overlong uvarint", append(append(append([]byte(nil), pre[:tableStart]...), 0x80, 0x00), pre[tableStart+1:]...), "minimally encoded"},
		{"table ends early", pre[:len(pre)-1], "past the table"},
		{"trailing bytes", append(append([]byte(nil), pre...), 0), "after the URL table"},
		{"URLs not strictly ascending", withURLTable(pre, func(e []tableEntry) {
			e[2] = tableEntry{len(decodeTable(e)[1]), ""}
		}), "not strictly ascending"},
		{"decoded length differs from the header", withHeaderURLBytes(pre, uint32(readArenaHeader(pre).urlBytes+1)), "header says"},
		{"decoded length above 16× the table", withHeaderURLBytes(pre, uint32(16*(len(pre)-tableStart)+1)), "16 times"},
	} {
		if _, err := ArenaFromBytes(c.img); err == nil {
			t.Errorf("%s: corrupt image accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}

	// A header that asks for 64 MiB of URLs over a table of a few bytes
	// is refused before anything is allocated for them.
	huge := withHeaderURLBytes(valid, 64<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ArenaFromBytes(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("64 MiB of URLs over a few table bytes accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing 64 MiB of URLs allocated %d bytes", grew)
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

// prefixTree trains one-click sessions on 20 URLs that share a long
// prefix, so its URL table restarts at URL 17 as well as at URL 1.
func prefixTree() *Tree {
	tr := NewTree()
	for i := 0; i < 20; i++ {
		tr.Insert([]string{fmt.Sprintf("/docs/section/page-%02d", i)}, 0, int64(i+1))
	}
	return tr
}

// tableEntry is one entry of an image's URL table.
type tableEntry struct {
	shared int
	suffix string
}

// urlTable reads the entries of a valid image's URL table.
func urlTable(img []byte) []tableEntry {
	table := img[readArenaHeader(img).layout().urls:]
	var out []tableEntry
	for len(table) > 0 {
		shared, n := binary.Uvarint(table)
		size, m := binary.Uvarint(table[n:])
		out = append(out, tableEntry{int(shared), string(table[n+m : n+m+int(size)])})
		table = table[n+m+int(size):]
	}
	return out
}

// decodeTable returns the URLs a table's entries spell.
func decodeTable(entries []tableEntry) []string {
	urls := make([]string, len(entries))
	prev := ""
	for i, e := range entries {
		urls[i] = prev[:e.shared] + e.suffix
		prev = urls[i]
	}
	return urls
}

// withURLTable returns a copy of img whose URL table entries edit has
// changed, with the header's URL byte count set to what the entries
// add up to.
func withURLTable(img []byte, edit func([]tableEntry)) []byte {
	entries := urlTable(img)
	edit(entries)
	out := append([]byte(nil), img[:readArenaHeader(img).layout().urls]...)
	total := 0
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(e.shared))
		out = binary.AppendUvarint(out, uint64(len(e.suffix)))
		out = append(out, e.suffix...)
		total += e.shared + len(e.suffix)
	}
	return withHeaderURLBytes(out, uint32(total))
}

// withHeaderURLBytes returns a copy of img whose header declares n
// bytes of URLs.
func withHeaderURLBytes(img []byte, n uint32) []byte {
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(out[20:], n)
	return out
}

// commonPrefix returns the length of the longest prefix x and y share.
func commonPrefix(x, y string) int {
	n := 0
	for n < len(x) && n < len(y) && x[n] == y[n] {
		n++
	}
	return n
}

// TestFreezeURLTableRestarts: each table entry shares the longest
// prefix its URL has in common with the one before it, except every
// 16th from the first, which shares nothing; so the URLs decode to at
// most 16 times the table's bytes.
func TestFreezeURLTableRestarts(t *testing.T) {
	img := prefixTree().Freeze().Bytes()
	entries := urlTable(img)
	urls := decodeTable(entries)
	if len(entries) != 20 {
		t.Fatalf("table holds %d entries, want 20", len(entries))
	}
	for i, e := range entries {
		want := 0
		if i%16 != 0 {
			want = commonPrefix(urls[i-1], urls[i])
		}
		if e.shared != want {
			t.Errorf("URL %d (%s) shares %d bytes, want %d", i+1, urls[i], e.shared, want)
		}
	}
	h := readArenaHeader(img)
	if table := uint64(len(img)) - h.layout().urls; h.urlBytes > 16*table || entries[16].shared != 0 {
		t.Fatalf("%d URL bytes over a %d-byte table, URL 17 shares %d", h.urlBytes, table, entries[16].shared)
	}
}

// Byte offsets of individual fields inside an arena image, read from
// the image's header through the same layout the implementation uses.
func countByteOffset(a *Arena, node int) int {
	h := readArenaHeader(a.Bytes())
	return int(h.layout().counts + uint64(node)*h.countW)
}

func symByteOffset(a *Arena, node int) int {
	h := readArenaHeader(a.Bytes())
	return int(h.layout().syms + uint64(node)*h.idW)
}

func childOffByteOffset(a *Arena, node int) int {
	h := readArenaHeader(a.Bytes())
	return int(h.layout().childOff + uint64(node)*h.idW)
}

// TestFrozenTreeZeroAlloc: with a warm buffer, the frozen serving path
// performs zero heap allocations per prediction, for the longest match,
// the blend, and PB-PPM's merge of rule-3 links (every click here has
// two linked candidates).
func TestFrozenTreeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomArenaTree(rng, 800, 0).Freeze()

	ctxs := make([][]string, 64)
	for i := range ctxs {
		ctx := make([]string, rng.Intn(5)+1)
		for j := range ctx {
			ctx[j] = url(rng.Intn(40))
		}
		ctxs[i] = ctx
	}
	links := make(map[string][]Prediction, 40)
	for i := 0; i < 40; i++ {
		links[url(i)] = []Prediction{
			{URL: url((i + 1) % 40), Probability: 0.9, Order: 1},
			{URL: url((i + 7) % 40), Probability: 0.3, Order: 1},
		}
	}
	for _, p := range []FrozenParams{
		{Name: "test", Threshold: 0.1},
		{Name: "test", Threshold: 0.1, Blend: true},
		{Name: "test", Threshold: 0.1, Links: links},
	} {
		f := NewFrozenTree(a, p)
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
			t.Fatalf("frozen PredictInto (blend %v, %d linked clicks) allocates %v per op, want 0",
				p.Blend, len(p.Links), allocs)
		}
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
			if c, found := a.sec.child(lv.node, sym); found {
				lives[k] = live{start: lv.start, node: c}
				k++
			}
		}
		lives = lives[:k]
		if c, found := a.sec.child(0, sym); found {
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
// context's last 16 URLs, on an arena deeper than 16. It holds for the
// longest match alone, with extra candidates keyed by the click (the
// shape of PB-PPM's rule-3 links), and for the blend (blended PPM).
func TestFrozenTreeStreamingMatchesPredictInto(t *testing.T) {
	const tail = 16
	rng := rand.New(rand.NewSource(9))
	a := deepArenaTree(rng, 250, 5, 40).Freeze()
	// Every click but one has extra candidates; the first repeats a URL
	// the tree also predicts, so the merge's dedup runs.
	links := map[string][]Prediction{}
	for i := 0; i < 5; i++ {
		links[url(i)] = []Prediction{
			{URL: url((i + 1) % 5), Probability: 0.5, Order: 1},
			{URL: "/linked", Probability: 0.3, Order: 1},
		}
	}
	for _, v := range []struct {
		name  string
		links map[string][]Prediction
		blend bool
	}{{"longest match", nil, false}, {"links", links, false}, {"blend", nil, true}} {
		for _, clamp := range []int{0, 1, 2, 4, tail, tail + 1, 30} {
			f := NewFrozenTree(a, FrozenParams{Name: "test", Threshold: 0.05, ClampHeight: clamp, Links: v.links, Blend: v.blend})
			for round := 0; round < 200; round++ {
				ctx := randomContext(rng, rng.Intn(45)+1, 6)
				node := uint32(0)
				for _, u := range ctx {
					node = f.Step(node, u, tail)
				}
				got := f.PredictFrom(node, ctx[len(ctx)-1], tail, nil)
				want := f.PredictInto(lastN(ctx, tail), nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, clamp %d, context %q: streamed %+v, PredictInto %+v", v.name, clamp, ctx, got, want)
				}
			}
		}
	}
}

// referenceBlend is the blend as it ran before it walked suffix links,
// kept as the oracle: it matches every suffix of the height-clamped
// context from the root and keeps each URL's highest estimate in a map.
func referenceBlend(a *Arena, ctx []string, threshold float64, height int) []Prediction {
	if height > 0 && len(ctx) >= height {
		ctx = ctx[len(ctx)-(height-1):]
	}
	best := make(map[string]Prediction)
	for i := 0; i < len(ctx); i++ {
		n, ok := a.Match(ctx[i:])
		if !ok || a.Count(n) == 0 {
			continue
		}
		total := a.Count(n)
		confidence := 1 - 1/(1+float64(total))
		a.EachChild(n, func(child uint32, url string) bool {
			p := Prediction{URL: url, Probability: float64(a.Count(child)) / float64(total) * confidence, Order: len(ctx) - i}
			if b, ok := best[url]; !ok || p.Probability > b.Probability {
				best[url] = p
			}
			return true
		})
	}
	var out []Prediction
	for _, p := range best {
		if p.Probability >= threshold {
			out = append(out, p)
		}
	}
	SortPredictions(out)
	return out
}

// TestFrozenTreeBlendMatchesEverySuffix: the blend over the match's
// suffix-link chain predicts exactly what blending every matching
// suffix of the context does, orders and probabilities bit for bit,
// across thresholds and clamp heights.
func TestFrozenTreeBlendMatchesEverySuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, a := range []*Arena{randomArenaTree(rng, 600, 0).Freeze(), deepArenaTree(rng, 250, 5, 40).Freeze()} {
		for _, thr := range []float64{0, 0.05, 0.25} {
			for _, clamp := range []int{0, 3, 8} {
				f := NewFrozenTree(a, FrozenParams{Name: "blend", Threshold: thr, ClampHeight: clamp, Blend: true})
				for round := 0; round < 150; round++ {
					ctx := randomContext(rng, rng.Intn(20)+1, 12)
					got := f.Predict(ctx)
					want := referenceBlend(a, ctx, thr, clamp)
					if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("threshold %v, clamp %d, context %q: blend %+v, every-suffix reference %+v", thr, clamp, ctx, got, want)
					}
				}
			}
		}
	}
}

// pathMarks is the usage marking the pointer tree did before every
// model predicted from its arena, kept as the oracle for PredictMarking:
// it adds to marks the paths (URLs joined by NUL) one prediction from
// ctx marked. A longest match marked each node on the matched path and
// each child at or above the threshold; a blend marked each node on the
// path of every matching suffix and the node each surviving candidate
// came from. A height-H model considered the trailing H-1 URLs.
func pathMarks(marks map[string]bool, tr *Tree, ctx []string, threshold float64, height int, blend bool) {
	if height > 0 && len(ctx) >= height {
		ctx = ctx[len(ctx)-(height-1):]
	}
	key := func(path []string) string { return strings.Join(path, "\x00") }
	markPath := func(path []string) {
		for i := 1; i <= len(path); i++ {
			marks[key(path[:i])] = true
		}
	}
	type candidate struct {
		p    float64
		path string
	}
	best := map[string]candidate{}
	for i := range ctx {
		suffix := ctx[i:]
		n := tr.Match(suffix)
		if n == nil || (blend && n.Count == 0) {
			continue
		}
		markPath(suffix)
		confidence := 1.0
		if blend {
			confidence = 1 - 1/(1+float64(n.Count))
		}
		tr.EachChild(n, func(url string, c *Node) bool {
			p := float64(c.Count) / float64(n.Count) * confidence
			child := key(append(suffix[:len(suffix):len(suffix)], url))
			if !blend && p >= threshold {
				marks[child] = true
			}
			if b, ok := best[url]; blend && (!ok || p > b.p) {
				best[url] = candidate{p, child}
			}
			return true
		})
		if !blend {
			return
		}
	}
	for _, c := range best {
		if c.p >= threshold {
			marks[c.path] = true
		}
	}
}

// TestPredictMarkingMatchesPathMarks: the usage bits PredictMarking
// sets while a replay steps sessions through a frozen tree cover
// exactly the leaves the pointer tree's own marking reached, and mark
// nothing it did not, for the longest match and the blend, with and
// without a clamp height, at every threshold the models use. Leaves are
// what the path-utilization rate counts.
func TestPredictMarkingMatchesPathMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trees := []*Tree{randomArenaTree(rng, 600, 0), randomArenaTree(rng, 600, 3), deepArenaTree(rng, 250, 5, 40)}
	for ti, tr := range trees {
		a := tr.Freeze()
		for _, blend := range []bool{false, true} {
			for _, height := range []int{0, 3} {
				for _, thr := range []float64{0, 0.1, 0.25} {
					f := NewFrozenTree(a, FrozenParams{Threshold: thr, ClampHeight: height, Blend: blend})
					used := make([]uint64, (a.NodeCount()+64)/64)
					marks := map[string]bool{}
					for round := 0; round < 120; round++ {
						ctx := randomContext(rng, rng.Intn(12)+1, 12)
						node := uint32(0)
						for i, u := range ctx {
							node = f.Step(node, u, math.MaxInt)
							f.PredictMarking(node, u, math.MaxInt, nil, used)
							pathMarks(marks, tr, ctx[:i+1], thr, height, blend)
						}
					}
					want := make(map[uint32]bool, len(marks))
					for k := range marks {
						n, ok := a.Match(strings.Split(k, "\x00"))
						if !ok {
							t.Fatalf("tree %d: oracle marked %q, which the arena lacks", ti, k)
						}
						want[n] = true
					}
					for n := uint32(1); n <= uint32(a.NodeCount()); n++ {
						if isSet(used, n) && !want[n] {
							t.Fatalf("tree %d blend %v height %d threshold %v: node %d marked, the tree's marking never reached it", ti, blend, height, thr, n)
						}
						if a.IsLeaf(n) && want[n] && !isSet(used, n) {
							t.Fatalf("tree %d blend %v height %d threshold %v: leaf %d unmarked, the tree's marking reached it", ti, blend, height, thr, n)
						}
					}
				}
			}
		}
	}
}

// TestPredictMarkingSkipsFilteredCandidates pins the marks on a fixed
// tree: a > b seven times and a > x once, so P(x|a) = 1/8 falls below
// the 0.25 threshold. From the context [a] both the longest match and
// the blend mark a and a > b and leave a > x unmarked: a candidate the
// blend's threshold filtered out was never predicted. Rule-3 links mark
// nothing.
func TestPredictMarkingSkipsFilteredCandidates(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 7; i++ {
		tr.Insert([]string{"a", "b"}, 0, 1)
		tr.Insert([]string{"b"}, 0, 1)
	}
	tr.Insert([]string{"a", "x"}, 0, 1)
	tr.Insert([]string{"x"}, 0, 1)
	a := tr.Freeze()
	node := func(path ...string) uint32 {
		n, ok := a.Match(path)
		if !ok {
			t.Fatalf("no node %v", path)
		}
		return n
	}
	links := map[string][]Prediction{"a": {{URL: "x", Probability: 0.9, Order: 1}}}
	for _, blend := range []bool{false, true} {
		f := NewFrozenTree(a, FrozenParams{Threshold: 0.25, Blend: blend, Links: links})
		used := make([]uint64, 1)
		ps := f.PredictMarking(f.Step(0, "a", 1), "a", 1, nil, used)
		if len(ps) != 2 || ps[0].URL != "x" || ps[1].URL != "b" {
			t.Fatalf("blend %v: predictions %+v, want the linked x, then b", blend, ps)
		}
		for _, n := range []uint32{node("a"), node("a", "b")} {
			if !isSet(used, n) {
				t.Errorf("blend %v: node %d not marked", blend, n)
			}
		}
		for _, n := range []uint32{node("a", "x"), node("b"), node("x")} {
			if isSet(used, n) {
				t.Errorf("blend %v: node %d marked, though no prediction came from it", blend, n)
			}
		}
	}
}

// TestFrozenTreeClampsHeight mirrors the height-capped models: a
// clampHeight-H frozen tree must only consider the trailing H-1 URLs.
func TestFrozenTreeClampsHeight(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b", "/c"}, 3, 1)
	f := NewFrozenTree(tr.Freeze(), FrozenParams{Name: "3-test", ClampHeight: 3})
	got := f.Predict([]string{"/x", "/a", "/b"})
	if len(got) != 1 || got[0].URL != "/c" {
		t.Fatalf("clamped predict = %+v, want /c", got)
	}
}

// TestFrozenTreeTrainPanics pins the immutability contract.
func TestFrozenTreeTrainPanics(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a"}, 0, 1)
	f := NewFrozenTree(tr.Freeze(), FrozenParams{Name: "test"})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("TrainSequence on a frozen model did not panic")
		} else if !strings.Contains(r.(string), "frozen") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	f.TrainSequence([]string{"/a"})
}

// goldenTree is the two-session tree whose AR4 image
// TestArenaImageGolden spells out. The first session's weight of 258
// (0x0102) puts a nonzero high byte in the counts.
func goldenTree() *Tree {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 258)
	tr.Insert([]string{"/b", "/c"}, 0, 1)
	return tr
}

// goldenImage is goldenTree's image with the counts section replaced,
// field by field: nodes in BFS order are the pseudo-root, /a, /b, /a/b
// and /b/c, and symbols 1, 2 and 3 are /a, /b and /c.
func goldenImage(countW byte, counts []byte) [][]byte {
	return [][]byte{
		[]byte("pbppmAR4"),
		{countW, 2, 0, 0},                    // widths: counts, ids; two zero bytes
		{5, 0, 0, 0},                         // numNodes
		{3, 0, 0, 0},                         // numSyms
		{6, 0, 0, 0},                         // urlBytes
		counts,                               // counts
		{0, 0, 1, 0, 2, 0, 2, 0, 3, 0},       // syms
		{1, 0, 3, 0, 4, 0, 5, 0, 5, 0, 5, 0}, // childOff
		{0, 2, '/', 'a'},                     // /a: a restart, so it shares nothing
		{1, 1, 'b'},                          // /b: shares "/" with /a
		{1, 1, 'c'},                          // /c: shares "/" with /b
	}
}

// TestArenaImageGolden pins the AR4 byte layout: the image of a
// two-session tree, every integer little-endian at the narrowest width
// its section allows, then the front-coded URL table. The same image
// with counts one width wider than needed is refused, so the tree has
// exactly this one image.
func TestArenaImageGolden(t *testing.T) {
	fields := goldenImage(2, []byte{0x03, 0x01, 0x02, 0x01, 0x01, 0x00, 0x02, 0x01, 0x01, 0x00}) // 259, 258, 1, 258, 1
	want := bytes.Join(fields, nil)
	got := goldenTree().Freeze().Bytes()
	at := 0
	for i, f := range fields {
		if end := at + len(f); end > len(got) || !bytes.Equal(got[at:end], f) {
			t.Fatalf("field %d at byte %d: image % x, want % x", i, at, got[at:min(end, len(got))], f)
		}
		at += len(f)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("image is %d bytes, golden %d", len(got), len(want))
	}

	wide := bytes.Join(goldenImage(4, []byte{
		0x03, 0x01, 0, 0, 0x02, 0x01, 0, 0, 0x01, 0, 0, 0, 0x02, 0x01, 0, 0, 0x01, 0, 0, 0,
	}), nil)
	if _, err := ArenaFromBytes(wide); err == nil || !strings.Contains(err.Error(), "needs 2-byte counts") {
		t.Fatalf("image with 4-byte counts for a root count of 259: err = %v, want a count-width error", err)
	}
}

// wideIDTree trains enough long random sessions for more than 65,535
// nodes, so its image needs 4-byte symbol ids and child offsets, while
// its root count stays below 65,536. If the node count (pseudo-root
// included) comes out even, one more session makes it odd, so the
// 2-byte counts end 2 bytes short of the ids' alignment and the image
// carries padding.
func wideIDTree() *Tree {
	tr := deepArenaTree(rand.New(rand.NewSource(17)), 4000, 12, 40)
	if (tr.NodeCount()+1)%2 == 0 {
		tr.Insert([]string{"/odd-one-out"}, 0, 1)
	}
	return tr
}

// TestFreezeWideSections freezes trees whose sections need more than 2
// bytes: a root count above 65,535 (4-byte counts), one above 2^32-1
// (8-byte counts), and more than 65,535 nodes (4-byte ids and child
// offsets). Each image must carry those widths, re-attach from a copy
// byte-identically, predict like the live tree at every order cap, and
// step like the reference scan.
func TestFreezeWideSections(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	counts4 := deepArenaTree(rng, 300, 12, 24)
	counts4.Insert([]string{url(0), url(1), url(2)}, 0, 70_000)
	counts8 := deepArenaTree(rng, 300, 12, 24)
	counts8.Insert([]string{url(3), url(1)}, 0, 1<<33)
	cases := []struct {
		name             string
		tr               *Tree
		countW, idW, pad uint64
	}{
		{"4-byte counts", counts4, 4, 2, 0},
		{"8-byte counts", counts8, 8, 2, 0},
		{"4-byte ids", wideIDTree(), 2, 4, 2},
	}
	for _, c := range cases {
		a := c.tr.Freeze()
		h := readArenaHeader(a.Bytes())
		l := h.layout()
		if pad := l.syms - (l.counts + h.nodes*h.countW); h.countW != c.countW || h.idW != c.idW || pad != c.pad {
			t.Fatalf("%s: widths counts %d ids %d with %d bytes of padding, want %d, %d and %d",
				c.name, h.countW, h.idW, pad, c.countW, c.idW, c.pad)
		}
		img := append([]byte(nil), a.Bytes()...)
		if c.pad > 0 {
			img[l.syms-1] = 1
			if _, err := ArenaFromBytes(img); err == nil {
				t.Fatalf("%s: nonzero padding accepted", c.name)
			}
			img[l.syms-1] = 0
		}
		b, err := ArenaFromBytes(img)
		if err != nil {
			t.Fatalf("%s: reattach: %v", c.name, err)
		}
		if !bytes.Equal(b.Bytes(), a.Bytes()) {
			t.Fatalf("%s: reattach changed the image", c.name)
		}
		depth := a.Stats().MaxDepth
		for round := 0; round < 30; round++ {
			ctx := randomContext(rng, rng.Intn(2*depth)+1, 12)
			for cap := 1; cap <= depth+1; cap++ {
				node := uint32(0)
				for _, u := range ctx {
					node = b.Step(node, u, cap)
				}
				want := treeCandidates(c.tr, lastN(ctx, cap), 0)
				var got []Prediction
				if node != 0 {
					got = b.AppendPredictions(nil, node, 0, b.Depth(node))
				}
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: context %q at cap %d: arena %+v, tree %+v", c.name, ctx, cap, got, want)
				}
			}
			checkStreaming(t, b, ctx, 1+rng.Intn(depth+1))
			checkStreaming(t, b, ctx, len(ctx))
		}
	}
}

// TestSwapSectionsForBigEndian runs the conversion a big-endian host
// applies at attach on images of every section width: each count,
// symbol id and child offset must read back big-endian as the value the
// image holds little-endian, and every other byte — header, padding and
// the URL table — must be left as it was.
func TestSwapSectionsForBigEndian(t *testing.T) {
	wordOf := func(order binary.ByteOrder, b []byte, w uint64) uint64 {
		switch w {
		case 2:
			return uint64(order.Uint16(b))
		case 4:
			return uint64(order.Uint32(b))
		}
		return order.Uint64(b)
	}
	counts8 := goldenTree()
	counts8.Insert([]string{"/a"}, 0, 1<<40+0x0102)
	for _, tr := range []*Tree{goldenTree(), counts8, wideIDTree()} {
		img := tr.Freeze().Bytes()
		h := readArenaHeader(img)
		l := h.layout()
		swapped := append([]byte(nil), img...)
		swapSections(swapped, h, l)

		swappedByte := make([]bool, len(img))
		check := func(section string, off, w, n uint64) {
			for i := uint64(0); i < n; i++ {
				at := off + i*w
				if le, be := wordOf(binary.LittleEndian, img[at:], w), wordOf(binary.BigEndian, swapped[at:], w); le != be {
					t.Fatalf("%d-byte %s[%d]: big-endian copy reads %d, image holds %d", w, section, i, be, le)
				}
				for k := at; k < at+w; k++ {
					swappedByte[k] = true
				}
			}
		}
		check("counts", l.counts, h.countW, h.nodes)
		check("syms", l.syms, h.idW, h.nodes)
		check("childOff", l.childOff, h.idW, h.nodes+1)
		for i := range img {
			if !swappedByte[i] && swapped[i] != img[i] {
				t.Fatalf("byte %d outside the swapped sections changed", i)
			}
		}
	}
}
