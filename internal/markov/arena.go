// Arena: a frozen, pointer-free snapshot of a prediction tree.
//
// A trained Tree is laid out for training: 24-byte node records and
// 8-byte child entries with room to grow, int64 counts, and a URL index
// of Go strings and a map. A published model needs none of that room.
// Freeze converts a tree into an Arena, a struct-of-slices image carved
// out of one contiguous buffer. Every integer section is little-endian
// at the narrowest width that holds its largest value, and one
// front-coded URL table ends the image:
//
//	magic "pbppmAR4"            8 bytes
//	countW, idW, 0, 0           4 × uint8: bytes per count (2, 4 or 8)
//	                            and per symbol id and child offset (2 or
//	                            4); two zero bytes
//	numNodes, numSyms,
//	urlBytes                    3 × uint32; urlBytes is the URLs' total
//	                            length once decoded
//	counts   []uint(countW)     one per node, training mass
//	syms     []uint(idW)        one per node, symbol id (0 = pseudo-root)
//	childOff []uint(idW)        numNodes+1 prefix sums: the children of
//	                            node i are nodes [childOff[i], childOff[i+1])
//	urls                        per symbol 1..numSyms: a uvarint shared-
//	                            prefix length, a uvarint suffix length and
//	                            the suffix bytes, to the end of the image
//
// Each integer section starts at a multiple of its width, and any bytes
// skipped to get there are zero. No count exceeds its parent's, so the
// root's count sets countW; numNodes, the last child offset, sets idW
// (every symbol labels at least one node, so every id is smaller). A
// URL's entry shares with the URL before it the longest prefix the two
// have in common, except at a restart: the entry of every 16th URL,
// from the first, shares nothing. Every uvarint takes its shortest
// encoding. ArenaFromBytes refuses any other width, shared length or
// encoding, so a tree has exactly one image. No model is too large to
// freeze: a larger one just gets wider sections.
//
// The restarts bound what the table decodes to: each URL is no longer
// than the table bytes of its block of 16, so urlBytes is at most 16
// times the table's size. ArenaFromBytes checks that, and the entry
// lengths, before it allocates anything for the URLs, so a small image
// cannot ask for a large allocation.
//
// Nodes are laid out in BFS (level) order, so each node's children form
// one contiguous, symbol-sorted block and no per-node child count is
// stored — the childOff prefix-sum array is the entire structural
// encoding. Symbol ids are assigned in sorted-URL order (symbol
// ascending ⇔ URL ascending), which makes the layout canonical: any two
// trees with the same logical content freeze to byte-identical arenas
// regardless of interning order, and a child block sorted by symbol is
// automatically sorted by URL for deterministic prediction order and
// binary-search lookup.
//
// The whole snapshot is a single relocatable []byte (Bytes), so a
// snapshot can be written to disk or sent to another machine verbatim,
// and ArenaFromBytes revives it after validating every index against
// the buffer bounds. The arena serves from typed views of the image
// itself ([]uint16, []uint32 or []uint64 per section) and resolves the
// widths once per lookup, not once per element read. ArenaFromBytes
// decodes the URL table once into one string holding every URL back to
// back, and URLOf returns zero-copy views into it, so the GC sees the
// same few objects per model whatever its size: the image, the URL
// blob, and the URL slice and index beside the depth and suffix-link
// arrays. A big-endian host serves from a byte-swapped private copy of
// the image instead, so one image reads the same on every machine.
package markov

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// arenaMagic prefixes every arena image. An image in an earlier layout
// (such as pbppmAR3's, with URL offsets instead of a front-coded table)
// is refused at the magic.
const arenaMagic = "pbppmAR4"

// arenaHeaderSize is the magic, the two section widths with their two
// zero bytes, and the three uint32 dimensions: 24 bytes, so the counts
// start 8-aligned.
const arenaHeaderSize = len(arenaMagic) + 4 + 3*4

// arenaMaxDim bounds the node and symbol counts an image may declare,
// so a corrupt header cannot drive the loader into overflow or an
// absurd allocation before the size cross-check runs.
const arenaMaxDim = 1 << 31

// urlRestart spaces the URL table's restarts: the entry of every
// urlRestart-th URL, from the first, shares no prefix with the URL
// before it, which bounds every decoded URL by its block's table bytes.
const urlRestart = 16

// hostLittleEndian reports whether this machine stores integers
// little-endian, so the image's sections can be viewed in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Arena is a frozen prediction tree serving predictions directly from
// the flat buffer described in the package comment above. It is
// immutable after construction and safe for unsynchronized concurrent
// use; its prediction methods perform no writes and no allocations
// (given a caller-supplied buffer).
type Arena struct {
	buf []byte // the full relocatable little-endian image, including header

	// sec views the counts, symbol ids and child offsets at the image's
	// widths, in buf or in its host-order private copy.
	sec sections

	// blob is every URL, in symbol order, decoded from the image's URL
	// table at attach time; urls[s] is symbol s's URL as a zero-copy view
	// into it (urls[0] is the pseudo-root's empty string), and ids is the
	// reverse index.
	blob string
	urls []string
	ids  map[string]uint32

	// depth[i] is node i's path length from the pseudo-root (0 for the
	// root itself), and link[i] its suffix link: the node for the
	// longest proper suffix of i's path that is itself a path from the
	// root (0 when only the empty suffix is). Both are derived at
	// attach time and drive Step; they are not part of the image.
	depth []uint32
	link  []uint32
}

// arenaHeader is an image's header: the section widths in bytes, the
// two bytes after them (zero in a valid image), and the dimensions.
type arenaHeader struct {
	countW, idW, pad      uint64
	nodes, syms, urlBytes uint64
}

// readArenaHeader decodes the header of an image at least
// arenaHeaderSize bytes long.
func readArenaHeader(img []byte) arenaHeader {
	w := img[len(arenaMagic):]
	return arenaHeader{
		countW: uint64(w[0]), idW: uint64(w[1]), pad: uint64(binary.LittleEndian.Uint16(w[2:])),
		nodes:    uint64(binary.LittleEndian.Uint32(w[4:])),
		syms:     uint64(binary.LittleEndian.Uint32(w[8:])),
		urlBytes: uint64(binary.LittleEndian.Uint32(w[12:])),
	}
}

// put writes the magic and the header at the start of img.
func (h arenaHeader) put(img []byte) {
	copy(img, arenaMagic)
	w := img[len(arenaMagic):]
	w[0], w[1] = byte(h.countW), byte(h.idW)
	binary.LittleEndian.PutUint16(w[2:], uint16(h.pad))
	binary.LittleEndian.PutUint32(w[4:], uint32(h.nodes))
	binary.LittleEndian.PutUint32(w[8:], uint32(h.syms))
	binary.LittleEndian.PutUint32(w[12:], uint32(h.urlBytes))
}

// arenaLayout is where each section of an image starts. The URL table
// runs from urls to the end of the image.
type arenaLayout struct{ counts, syms, childOff, urls uint64 }

// layout places the sections after the header in order, each integer
// section at the next multiple of its width. The widths must be valid.
func (h arenaHeader) layout() arenaLayout {
	alignUp := func(off, w uint64) uint64 { return (off + w - 1) / w * w }
	var l arenaLayout
	l.counts = uint64(arenaHeaderSize)
	l.syms = alignUp(l.counts+h.nodes*h.countW, h.idW)
	l.childOff = l.syms + h.nodes*h.idW
	l.urls = l.childOff + (h.nodes+1)*h.idW
	return l
}

// widthFor returns the narrowest of 2, 4 and 8 bytes that holds v.
func widthFor(v uint64) uint64 {
	switch {
	case v <= math.MaxUint16:
		return 2
	case v <= math.MaxUint32:
		return 4
	}
	return 8
}

// putUint writes v little-endian into the first w bytes of b.
func putUint(b []byte, w, v uint64) {
	switch w {
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// alignedBuf returns an 8-aligned byte slice of length n, so every
// section cast is legal. Backing the slice with []uint64 is the
// portable way to guarantee alignment.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	backing := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), n)
}

// Freeze builds the arena image of the tree: reachable URLs are
// collected and sorted, nodes are laid out in BFS order with
// symbol-sorted child blocks, and the result is attached through the
// same validation path as ArenaFromBytes (a failure there is a builder
// bug and panics). The tree is read but not modified.
//
// Freeze collects only symbols reachable from the root: a tree sharing
// a larger symbol table (CopyIf) freezes to an arena holding just its
// own URLs.
func (t *Tree) Freeze() *Arena {
	// Pass 1: mark the symbols nodes carry. Every node is reachable: a
	// tree only ever adds children, and Prune compacts.
	used := make([]bool, len(t.syms.urls))
	maxFanout := uint32(0)
	for _, c := range t.chunks {
		for i := range c {
			used[c[i].sym] = true
			maxFanout = max(maxFanout, c[i].fanout)
		}
	}
	numNodes := t.size()

	// Pass 2: canonical symbol order — URLs sorted ascending, ids 1..n —
	// and the size of their front-coded table.
	urls := make([]string, 0, len(t.syms.urls))
	for s, u := range used {
		if u && s != 0 {
			urls = append(urls, t.syms.urls[s])
		}
	}
	sort.Strings(urls)
	remap := make([]uint32, len(t.syms.urls))
	urlBytes, tableLen := 0, 0
	for i, u := range urls {
		remap[t.syms.ids[u]] = uint32(i + 1)
		urlBytes += len(u)
		shared := sharedPrefix(urls, i)
		tableLen += uvarintLen(shared) + uvarintLen(len(u)-shared) + len(u) - shared
	}

	// Pass 3: BFS renumbering. Each run is appended in remapped-symbol
	// order, so each block lands contiguous and sorted; order[i] is the
	// tree id of arena node i.
	order := make([]uint32, 1, numNodes)
	order[0] = Root
	childOff := make([]uint32, numNodes+1)
	scratch := make([]uint64, 0, maxFanout)
	for i := 0; i < len(order); i++ {
		childOff[i] = uint32(len(order))
		// Siblings carry distinct symbols, so sorting (remapped symbol,
		// id) keys orders them by symbol alone.
		scratch = scratch[:0]
		for _, k := range t.run(order[i]) {
			scratch = append(scratch, uint64(remap[k.sym])<<32|uint64(k.node))
		}
		slices.Sort(scratch)
		for _, key := range scratch {
			order = append(order, uint32(key))
		}
	}
	childOff[numNodes] = uint32(numNodes)

	// Pass 4: fill the image, each integer section at its narrowest
	// width, and the URL table in place at its end.
	h := arenaHeader{
		countW:   widthFor(uint64(t.Count(Root))),
		idW:      widthFor(uint64(numNodes)),
		nodes:    uint64(numNodes),
		syms:     uint64(len(urls)),
		urlBytes: uint64(urlBytes),
	}
	l := h.layout()
	buf := alignedBuf(int(l.urls) + tableLen)
	h.put(buf)
	for i, id := range order {
		n := t.at(id)
		putUint(buf[l.counts+uint64(i)*h.countW:], h.countW, uint64(n.count))
		putUint(buf[l.syms+uint64(i)*h.idW:], h.idW, uint64(remap[n.sym]))
	}
	for i, off := range childOff {
		putUint(buf[l.childOff+uint64(i)*h.idW:], h.idW, uint64(off))
	}
	table := buf[l.urls:l.urls]
	for i, u := range urls {
		shared := sharedPrefix(urls, i)
		table = binary.AppendUvarint(table, uint64(shared))
		table = binary.AppendUvarint(table, uint64(len(u)-shared))
		table = append(table, u[shared:]...)
	}

	a, err := ArenaFromBytes(buf)
	if err != nil {
		panic("markov: Freeze built an invalid arena: " + err.Error())
	}
	return a
}

// sharedPrefix returns the shared-prefix length of urls[i]'s table
// entry: the length of the longest prefix it has in common with
// urls[i-1], or 0 at a restart.
func sharedPrefix(urls []string, i int) int {
	if i%urlRestart == 0 {
		return 0
	}
	prev, u := urls[i-1], urls[i]
	n := 0
	for n < len(prev) && n < len(u) && prev[n] == u[n] {
		n++
	}
	return n
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// ArenaFromBytes attaches to an arena image previously obtained from
// Arena.Bytes, on this machine or another. Every width, length, offset,
// symbol id, count and URL table entry is validated against the buffer
// bounds and the tree's invariants before any section is trusted, so a
// truncated or corrupt image returns an error instead of panicking,
// over-allocating or serving a probability above 1. On success the
// arena reads from buf for its whole lifetime (or from a private copy
// when buf is not 8-aligned or the host is big-endian); the caller must
// not modify it. The URLs are decoded once, into memory of their own.
func ArenaFromBytes(buf []byte) (*Arena, error) {
	if len(buf) < arenaHeaderSize {
		return nil, fmt.Errorf("markov: arena: image truncated at %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:len(arenaMagic)], []byte(arenaMagic)) {
		return nil, fmt.Errorf("markov: arena: bad magic %q, want %q", buf[:len(arenaMagic)], arenaMagic)
	}
	h := readArenaHeader(buf)
	if h.nodes < 1 || h.nodes > arenaMaxDim || h.syms >= h.nodes || h.urlBytes > arenaMaxDim {
		return nil, fmt.Errorf("markov: arena: implausible dimensions nodes=%d syms=%d urlbytes=%d",
			h.nodes, h.syms, h.urlBytes)
	}
	if h.countW != 2 && h.countW != 4 && h.countW != 8 {
		return nil, fmt.Errorf("markov: arena: %d-byte counts, want 2, 4 or 8", h.countW)
	}
	if h.idW != widthFor(h.nodes) || h.pad != 0 {
		return nil, fmt.Errorf("markov: arena: %d-byte ids and header bytes %#x, want %d and 0 for %d nodes",
			h.idW, h.pad, widthFor(h.nodes), h.nodes)
	}
	l := h.layout()
	if l.urls > uint64(len(buf)) {
		return nil, fmt.Errorf("markov: arena: image is %d bytes, header describes at least %d", len(buf), l.urls)
	}
	if table := uint64(len(buf)) - l.urls; h.urlBytes > urlRestart*table {
		return nil, fmt.Errorf("markov: arena: %d bytes of URLs exceed %d times the %d-byte URL table",
			h.urlBytes, urlRestart, table)
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		aligned := alignedBuf(len(buf))
		copy(aligned, buf)
		buf = aligned
	}
	if slices.ContainsFunc(buf[l.counts+h.nodes*h.countW:l.syms], func(b byte) bool { return b != 0 }) {
		return nil, fmt.Errorf("markov: arena: nonzero padding between sections")
	}
	host := buf
	if !hostLittleEndian {
		host = alignedBuf(len(buf))
		copy(host, buf)
		swapSections(host, h, l)
	}

	a := &Arena{buf: buf, sec: newSections(host, h, l)}
	if err := a.sec.check(uint32(h.syms)); err != nil {
		return nil, err
	}
	// The root's count is the largest (check holds every count to its
	// parent's), so it alone sets the count width.
	root := a.sec.count(0)
	if root > math.MaxInt64 {
		return nil, fmt.Errorf("markov: arena: root count %d overflows a tree's int64 counts", root)
	}
	if w := widthFor(root); w != h.countW {
		return nil, fmt.Errorf("markov: arena: root count %d needs %d-byte counts, image has %d-byte", root, w, h.countW)
	}
	if err := a.decodeURLs(buf[l.urls:], h); err != nil {
		return nil, err
	}
	a.depth = make([]uint32, h.nodes)
	a.link = make([]uint32, h.nodes)
	a.sec.suffixLinks(a.depth, a.link)
	return a, nil
}

// decodeURLs decodes the URL table of an image with header h into
// a.blob, a.urls and a.ids. A first pass checks every entry's lengths
// against the table, the restarts and the header's total before
// anything is allocated for the URLs; the second decodes them, holding
// each shared length to the longest common prefix and the URLs to
// strictly ascending order (unique and canonical — symbol order ⇔ URL
// order).
func (a *Arena) decodeURLs(table []byte, h arenaHeader) error {
	at, prev, total := 0, uint64(0), uint64(0)
	for s := uint64(1); s <= h.syms; s++ {
		shared, suffix, next := urlEntry(table, at)
		switch {
		case next < 0:
			return fmt.Errorf("markov: arena: URL %d: entry cut off, past the table or not minimally encoded", s)
		case (s-1)%urlRestart == 0 && shared != 0:
			return fmt.Errorf("markov: arena: URL %d restarts the table but shares %d bytes", s, shared)
		case shared > prev:
			return fmt.Errorf("markov: arena: URL %d shares %d bytes with a %d-byte URL", s, shared, prev)
		}
		prev = shared + uint64(len(suffix))
		total += prev
		at = next
	}
	if at != len(table) {
		return fmt.Errorf("markov: arena: %d bytes after the URL table", len(table)-at)
	}
	if total != h.urlBytes {
		return fmt.Errorf("markov: arena: URLs decode to %d bytes, header says %d", total, h.urlBytes)
	}

	blob := make([]byte, 0, total)
	a.urls = make([]string, h.syms+1)
	a.ids = make(map[string]uint32, h.syms)
	at = 0
	for s := uint64(1); s <= h.syms; s++ {
		shared, suffix, next := urlEntry(table, at)
		at = next
		prev, start := a.urls[s-1], len(blob)
		// The capacity holds every URL, so appending never moves the
		// URLs already viewed.
		blob = append(append(blob, prev[:shared]...), suffix...)
		var u string
		if len(blob) > start {
			u = unsafe.String(&blob[start], len(blob)-start)
		}
		if (s-1)%urlRestart != 0 && shared < uint64(len(prev)) && len(suffix) > 0 && suffix[0] == prev[shared] {
			return fmt.Errorf("markov: arena: URL %d shares %d bytes, fewer than it has in common with the URL before it", s, shared)
		}
		if s > 1 && u <= prev {
			return fmt.Errorf("markov: arena: URLs not strictly ascending at symbol %d", s)
		}
		a.urls[s] = u
		a.ids[u] = uint32(s)
	}
	a.blob = unsafe.String(unsafe.SliceData(blob), len(blob))
	return nil
}

// urlEntry reads the URL table entry at table[at:]: its shared-prefix
// length, its suffix and where the next entry starts. next is negative
// when a length is cut off or not minimally encoded, or the suffix runs
// past the table.
func urlEntry(table []byte, at int) (shared uint64, suffix []byte, next int) {
	shared, n := uvarint(table[at:])
	if n <= 0 {
		return 0, nil, -1
	}
	at += n
	size, n := uvarint(table[at:])
	if n <= 0 || size > uint64(len(table)-at-n) {
		return 0, nil, -1
	}
	at += n
	return shared, table[at : at+int(size)], at + int(size)
}

// uvarint is binary.Uvarint that also refuses, with n < 0, a value not
// in its shortest encoding: one whose last byte is a redundant zero.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// swapSections byte-swaps, in place, the sections an arena serves
// through typed views (counts, symbol ids and child offsets), turning a
// little-endian image into a big-endian host's order. The header is
// decoded explicitly as little-endian, and the URL table's bytes and
// uvarints have no byte order, so those stay as they are.
func swapSections(img []byte, h arenaHeader, l arenaLayout) {
	swapWords(img[l.counts:l.counts+h.nodes*h.countW], h.countW)
	swapWords(img[l.syms:l.childOff+(h.nodes+1)*h.idW], h.idW)
}

// swapWords reverses the bytes of each w-byte word of b.
func swapWords(b []byte, w uint64) {
	for i := uint64(0); i < uint64(len(b)); i += w {
		slices.Reverse(b[i : i+w])
	}
}

// sections reads an image's counts, symbol ids and child offsets. Its
// one implementation, sectionsOf, is instantiated for each pair of
// widths, so a call through the interface resolves the widths once and
// the loops inside it read plain typed slices.
type sections interface {
	// block returns the range of node's children.
	block(node uint32) (lo, hi uint32)
	sym(i uint32) uint32
	count(i uint32) uint64
	child(node, sym uint32) (uint32, bool)
	advance(link []uint32, node, sym uint32) uint32
	appendPredictions(buf []Prediction, urls []string, node uint32, threshold float64, order int) []Prediction
	appendBlend(buf []Prediction, a *Arena, node uint32, threshold float64) []Prediction
	check(numSyms uint32) error
	suffixLinks(depth, link []uint32)
}

// sectionsOf views the counts as []C and the symbol ids and child
// offsets as []I.
type sectionsOf[I uint16 | uint32, C uint16 | uint32 | uint64] struct {
	counts   []C
	syms     []I
	childOff []I
}

// newSections views host's sections at the header's widths.
func newSections(host []byte, h arenaHeader, l arenaLayout) sections {
	if h.idW == 2 {
		return newSectionsOf[uint16](host, h, l)
	}
	return newSectionsOf[uint32](host, h, l)
}

func newSectionsOf[I uint16 | uint32](host []byte, h arenaHeader, l arenaLayout) sections {
	syms, childOff := view[I](host, l.syms, h.nodes), view[I](host, l.childOff, h.nodes+1)
	switch h.countW {
	case 2:
		return &sectionsOf[I, uint16]{view[uint16](host, l.counts, h.nodes), syms, childOff}
	case 4:
		return &sectionsOf[I, uint32]{view[uint32](host, l.counts, h.nodes), syms, childOff}
	}
	return &sectionsOf[I, uint64]{view[uint64](host, l.counts, h.nodes), syms, childOff}
}

// view casts the n words at host[off:] to a slice. host is 8-aligned
// and off a multiple of the word size.
func view[W uint16 | uint32 | uint64](host []byte, off, n uint64) []W {
	return unsafe.Slice((*W)(unsafe.Pointer(&host[off])), n)
}

func (s *sectionsOf[I, C]) block(node uint32) (lo, hi uint32) {
	return uint32(s.childOff[node]), uint32(s.childOff[node+1])
}

func (s *sectionsOf[I, C]) sym(i uint32) uint32 { return uint32(s.syms[i]) }

func (s *sectionsOf[I, C]) count(i uint32) uint64 { return uint64(s.counts[i]) }

// child binary-searches node's sorted child block for sym.
func (s *sectionsOf[I, C]) child(node, sym uint32) (uint32, bool) {
	lo, end := s.block(node)
	hi := end
	for lo < hi {
		mid := (lo + hi) / 2
		if uint32(s.syms[mid]) < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && uint32(s.syms[lo]) == sym {
		return lo, true
	}
	return 0, false
}

// advance is the uncapped streaming transition: the deepest node whose
// path is a suffix of node's path extended by sym, or 0 when none is.
// Each suffix link followed is strictly shallower, so the search ends.
func (s *sectionsOf[I, C]) advance(link []uint32, node, sym uint32) uint32 {
	for {
		if c, found := s.child(node, sym); found {
			return c
		}
		if node == 0 {
			return 0
		}
		node = link[node]
	}
}

// appendPredictions implements Arena.AppendPredictions.
func (s *sectionsOf[I, C]) appendPredictions(buf []Prediction, urls []string, node uint32, threshold float64, order int) []Prediction {
	total := s.counts[node]
	if total == 0 {
		return buf
	}
	base := len(buf)
	lo, hi := s.block(node)
	for ci := lo; ci < hi; ci++ {
		p := float64(s.counts[ci]) / float64(total)
		if p >= threshold {
			buf = append(buf, Prediction{URL: urls[s.syms[ci]], Probability: p, Order: order})
		}
	}
	SortPredictions(buf[base:])
	return buf
}

// appendBlend appends the variable-order blend at match state node. The
// nodes on its suffix-link chain are the context's matching suffixes,
// longest first; each one's children are weighted by 1 - 1/(1+count),
// an escape-style confidence in that context's evidence, so confident
// deep contexts dominate while short ones fill in. A URL keeps its
// highest estimate at or above the threshold, the longer order winning
// a tie.
func (s *sectionsOf[I, C]) appendBlend(buf []Prediction, a *Arena, node uint32, threshold float64) []Prediction {
	for ; node != 0; node = a.link[node] {
		total := s.counts[node]
		if total == 0 {
			continue
		}
		confidence := 1 - 1/(1+float64(total))
		order := int(a.depth[node])
		lo, hi := s.block(node)
		for ci := lo; ci < hi; ci++ {
			p := float64(s.counts[ci]) / float64(total) * confidence
			if p >= threshold {
				buf = mergeCandidate(buf, Prediction{URL: a.urls[s.syms[ci]], Probability: p, Order: order})
			}
		}
	}
	SortPredictions(buf)
	return buf
}

// check validates the sections against the tree invariants serving
// relies on, given the number of symbols.
func (s *sectionsOf[I, C]) check(numSyms uint32) error {
	n := uint32(len(s.syms))
	// Structure: BFS child blocks are nondecreasing prefix sums, each
	// node's block starts strictly after the node itself (no cycles),
	// and the blocks tile [1, numNodes) exactly.
	if s.childOff[0] != 1 {
		return fmt.Errorf("markov: arena: root child block starts at %d, want 1", s.childOff[0])
	}
	if uint32(s.childOff[n]) != n {
		return fmt.Errorf("markov: arena: child blocks end at %d, want %d", s.childOff[n], n)
	}
	for i := uint32(0); i < n; i++ {
		if lo, hi := s.block(i); lo > hi || lo < i+1 {
			return fmt.Errorf("markov: arena: node %d child block [%d,%d) out of order", i, lo, hi)
		}
	}
	// Symbols: the pseudo-root is 0, every other node references a real
	// symbol, every symbol labels a node (a tree freezes only the URLs
	// on its paths), and sibling blocks are strictly symbol-sorted (the
	// binary search and deterministic-order invariant). Counts: no child
	// outweighs its parent, so no candidate's probability exceeds 1.
	if s.syms[0] != 0 {
		return fmt.Errorf("markov: arena: root symbol %d, want 0", s.syms[0])
	}
	labels := make([]uint64, numSyms/64+1)
	for i := uint32(1); i < n; i++ {
		sym := uint32(s.syms[i])
		if sym == 0 || sym > numSyms {
			return fmt.Errorf("markov: arena: node %d symbol %d out of range [1,%d]", i, sym, numSyms)
		}
		labels[sym/64] |= 1 << (sym % 64)
	}
	for sym := uint32(1); sym <= numSyms; sym++ {
		if labels[sym/64]&(1<<(sym%64)) == 0 {
			return fmt.Errorf("markov: arena: symbol %d labels no node", sym)
		}
	}
	for i := uint32(0); i < n; i++ {
		lo, hi := s.block(i)
		for ci := lo; ci < hi; ci++ {
			if ci > lo && s.syms[ci-1] >= s.syms[ci] {
				return fmt.Errorf("markov: arena: node %d sibling symbols not strictly ascending", i)
			}
			if s.counts[ci] > s.counts[i] {
				return fmt.Errorf("markov: arena: node %d count %d exceeds its parent %d's %d", ci, s.counts[ci], i, s.counts[i])
			}
		}
	}
	return nil
}

// suffixLinks fills depth and link, the Aho–Corasick failure function
// over the tree's paths. The layout is BFS, so a node's parent and every
// node on its parent's link chain precede it: one forward pass finds
// each link it follows already set.
func (s *sectionsOf[I, C]) suffixLinks(depth, link []uint32) {
	for i := uint32(0); i < uint32(len(depth)); i++ {
		lo, hi := s.block(i)
		for c := lo; c < hi; c++ {
			depth[c] = depth[i] + 1
			if i != 0 {
				link[c] = s.advance(link, link[i], uint32(s.syms[c]))
			}
		}
	}
}

// Bytes returns the arena's relocatable image. It aliases the arena's
// live storage: treat it as read-only, and copy before modifying.
func (a *Arena) Bytes() []byte { return a.buf }

// SizeBytes reports the image size — the frozen model's entire
// node-and-URL storage footprint, what a snapshot carries. What attach
// derives from the image, the decoded URLs among it, counts in
// Stats().Bytes and not here.
func (a *Arena) SizeBytes() int { return len(a.buf) }

// NodeCount reports the number of URL nodes (the paper's space
// metric), excluding the pseudo-root.
func (a *Arena) NodeCount() int { return len(a.depth) - 1 }

// SymbolCount reports the number of distinct URLs.
func (a *Arena) SymbolCount() int { return len(a.urls) - 1 }

// URLOf resolves a symbol id (0 is the pseudo-root's empty string).
// The returned string is a zero-copy view into the arena's URL blob.
func (a *Arena) URLOf(sym uint32) string { return a.urls[sym] }

// Symbol returns url's symbol id, and false when no node of the arena
// carries url.
func (a *Arena) Symbol(url string) (uint32, bool) {
	sym, ok := a.ids[url]
	return sym, ok
}

// Step advances a streaming match by one URL. node is the match state
// of a context: the deepest node whose path is a suffix of the context,
// 0 when there is none (as for the empty context). Step returns the
// state of the context extended by url, matched over its trailing
// maxOrder URLs only. Stepping a context URL by URL from 0 therefore
// reaches the node LongestMatch finds for its last maxOrder URLs, for
// one symbol lookup and an amortized constant number of child searches
// per step; an unseen URL resets the state to 0.
func (a *Arena) Step(node uint32, url string, maxOrder int) uint32 {
	sym, known := a.ids[url]
	if !known {
		return 0
	}
	return a.Clamp(a.sec.advance(a.link, node, sym), maxOrder)
}

// Clamp returns the deepest node on node's suffix-link chain (node
// itself included) whose depth is at most maxOrder, or 0: the match
// state of the same context considered over its last maxOrder URLs.
func (a *Arena) Clamp(node uint32, maxOrder int) uint32 {
	for node != 0 && int(a.depth[node]) > maxOrder {
		node = a.link[node]
	}
	return node
}

// Depth reports a node's path length from the pseudo-root: the matched
// order of a match state.
func (a *Arena) Depth(node uint32) int { return int(a.depth[node]) }

// LongestMatch finds the deepest node matching the longest suffix of
// ctx, returning the node with the matched order (suffix length). ok is
// false when no suffix of ctx is in the arena. It streams ctx through
// Step, so it visits each URL once whatever the context length.
func (a *Arena) LongestMatch(ctx []string) (node uint32, order int, ok bool) {
	for _, u := range ctx {
		node = a.Step(node, u, len(ctx))
	}
	return node, a.Depth(node), node != 0
}

// Match walks the exact path seq from the pseudo-root, mirroring
// Tree.Match. ok is false when the path is absent (or seq is empty).
func (a *Arena) Match(seq []string) (node uint32, ok bool) {
	if len(seq) == 0 {
		return 0, false
	}
	n := uint32(0)
	for _, u := range seq {
		sym, known := a.ids[u]
		if !known {
			return 0, false
		}
		c, found := a.sec.child(n, sym)
		if !found {
			return 0, false
		}
		n = c
	}
	return n, true
}

// Count reports a node's training count.
func (a *Arena) Count(node uint32) int64 { return int64(a.sec.count(node)) }

// IsLeaf reports whether node has no children: it ends a root-to-leaf
// path, the unit the path-utilization rate counts.
func (a *Arena) IsLeaf(node uint32) bool {
	lo, hi := a.sec.block(node)
	return lo == hi
}

// EachChild visits node's children in symbol (= URL) order until fn
// returns false.
func (a *Arena) EachChild(node uint32, fn func(child uint32, url string) bool) {
	lo, hi := a.sec.block(node)
	for ci := lo; ci < hi; ci++ {
		if !fn(ci, a.urls[a.sec.sym(ci)]) {
			return
		}
	}
}

// AppendPredictions appends node's children with conditional
// probability at least threshold to buf and sorts the appended tail
// into the pinned prediction order (probability descending, then URL
// ascending), without allocating beyond buf's capacity.
func (a *Arena) AppendPredictions(buf []Prediction, node uint32, threshold float64, order int) []Prediction {
	return a.sec.appendPredictions(buf, a.urls, node, threshold, order)
}

// Stats computes TreeStats with the exact semantics of Tree.Stats: the
// pseudo-root is excluded from node, depth, and branching figures;
// Roots is its fan-out; Bytes is the image size plus what attach
// derives from it: the decoded URLs, their slice and index, and the
// depth and suffix-link arrays.
func (a *Arena) Stats() TreeStats {
	numNodes := len(a.depth)
	st := TreeStats{Symbols: a.SymbolCount()}
	lo, hi := a.sec.block(0)
	st.Roots = int(hi - lo)
	internal, childSum := 0, 0
	for i := 1; i < numNodes; i++ {
		lo, hi := a.sec.block(uint32(i))
		fanout := int(hi - lo)
		st.Nodes++
		st.TotalCount += a.Count(uint32(i))
		// Depth 0 is the root's children, matching the pointer walk.
		d := a.Depth(uint32(i)) - 1
		for len(st.DepthHistogram) <= d {
			st.DepthHistogram = append(st.DepthHistogram, 0)
		}
		st.DepthHistogram[d]++
		if d+1 > st.MaxDepth {
			st.MaxDepth = d + 1
		}
		if fanout == 0 {
			st.Leaves++
		} else {
			internal++
			childSum += fanout
		}
	}
	if internal > 0 {
		st.MeanBranching = float64(childSum) / float64(internal)
	}
	st.Bytes = int64(len(a.buf)) + int64(len(a.blob))
	st.Bytes += int64(cap(a.urls)) * int64(unsafe.Sizeof(""))
	st.Bytes += 48 + int64(len(a.ids))*(int64(unsafe.Sizeof(""))+int64(unsafe.Sizeof(uint32(0)))+mapEntryOverhead)
	st.Bytes += int64(cap(a.depth)+cap(a.link)) * int64(unsafe.Sizeof(uint32(0)))
	return st
}

// TopBranches returns the n highest-count root branches with their
// share of the root's training mass, descending (URL ascending on
// ties); a quick view of what the model considers hot.
func (a *Arena) TopBranches(n int) []Prediction {
	lo, hi := a.sec.block(0)
	out := make([]Prediction, 0, hi-lo)
	total := a.sec.count(0)
	for ci := lo; ci < hi; ci++ {
		p := 0.0
		if total > 0 {
			p = float64(a.sec.count(ci)) / float64(total)
		}
		out = append(out, Prediction{URL: a.urls[a.sec.sym(ci)], Probability: p, Order: 1})
	}
	sort.Slice(out, func(i, j int) bool { return predictionLess(out[i], out[j]) })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// FrozenTree is the frozen predictor every model serves and ships as:
// the training-time tree replaced by its arena, plus the serving
// parameters the source model fixes at freeze time. Its candidates are
// the longest match's children (standard PPM, LRS, PB-PPM) or, with
// the blend flag, a blend over every matching context order (blended
// PPM), widened by extra candidates keyed by the current click
// (PB-PPM's rule-3 links). A frozen model is immutable — TrainSequence
// panics; PredictMarking records what a prediction touched in a bitset
// its caller owns.
type FrozenTree struct {
	arena *Arena
	name  string
	// threshold is the minimum conditional probability, resolved at
	// freeze time (the config sentinel dance is a training-time affair).
	threshold float64
	// clampHeight > 0 trims contexts to the trailing clampHeight-1 URLs
	// before matching, mirroring the height-capped models; the streaming
	// methods apply it as an order cap.
	clampHeight int
	// nodeCount is the source model's NodeCount, never below the
	// arena's. PB-PPM's includes every rule-3 link, even those the
	// threshold keeps out of links (the paper's space metric counts
	// links before the threshold applies).
	nodeCount int
	// links holds the extra candidates per current click, each list in
	// prediction order: PB-PPM's rule-3 links, thresholded, sorted and
	// capped at freeze time. Nil for every other model.
	links map[string][]Prediction
	// blend selects the variable-order blend (ppm.Config.BlendOrders).
	blend bool
}

var (
	_ Predictor         = (*FrozenTree)(nil)
	_ BufferedPredictor = (*FrozenTree)(nil)
	_ ArenaHolder       = (*FrozenTree)(nil)
)

// FrozenParams are a FrozenTree's serving parameters besides its arena,
// set from the source model when it freezes.
type FrozenParams struct {
	// Name is reported verbatim.
	Name string
	// Threshold is the minimum candidate probability.
	Threshold float64
	// ClampHeight mirrors the source model's height cap (0 for
	// unbounded).
	ClampHeight int
	// NodeCount is the source model's node count; a count below the
	// arena's selects the arena's.
	NodeCount int
	// Links are extra candidates keyed by the current click, each list
	// in prediction order (PB-PPM's rule-3 links).
	Links map[string][]Prediction
	// Blend selects the variable-order blend.
	Blend bool
}

// NewFrozenTree wraps an arena as a predictor with the given serving
// parameters.
func NewFrozenTree(a *Arena, p FrozenParams) *FrozenTree {
	return &FrozenTree{
		arena:       a,
		name:        p.Name,
		threshold:   p.Threshold,
		clampHeight: p.ClampHeight,
		nodeCount:   max(p.NodeCount, a.NodeCount()),
		links:       p.Links,
		blend:       p.Blend,
	}
}

// Params returns the serving parameters the model was built with, its
// node count lifted to the arena's. The link lists are the model's
// own; the caller must not modify them.
func (f *FrozenTree) Params() FrozenParams {
	return FrozenParams{
		Name:        f.name,
		Threshold:   f.threshold,
		ClampHeight: f.clampHeight,
		NodeCount:   f.nodeCount,
		Links:       f.links,
		Blend:       f.blend,
	}
}

// Name identifies the model; frozen models keep their source's name so
// reports and logs stay comparable across a freeze.
func (f *FrozenTree) Name() string { return f.name }

// TrainSequence panics: a frozen model is a published immutable
// snapshot. Train the live model and freeze again.
func (f *FrozenTree) TrainSequence([]string) {
	panic("markov: TrainSequence on a frozen model; train the live model and re-freeze")
}

// Predict returns the model's candidates, allocating a fresh slice (it
// never aliases arena storage beyond the immutable URL strings).
// Serving paths use PredictInto with a reused buffer.
func (f *FrozenTree) Predict(context []string) []Prediction {
	return f.PredictInto(context, nil)
}

// PredictInto implements BufferedPredictor: buf's previous contents are
// discarded and the result reuses its backing storage when capacity
// allows. With a warm buffer the call performs zero allocations.
func (f *FrozenTree) PredictInto(context []string, buf []Prediction) []Prediction {
	if len(context) == 0 {
		return buf[:0]
	}
	ctx := context
	if f.clampHeight > 0 && len(ctx) >= f.clampHeight {
		ctx = ctx[len(ctx)-(f.clampHeight-1):]
	}
	node, _, _ := f.arena.LongestMatch(ctx)
	return f.PredictFrom(node, context[len(context)-1], len(ctx), buf)
}

// maxOrder lowers an order cap to the clamp height's.
func (f *FrozenTree) maxOrder(n int) int {
	if f.clampHeight > 0 && f.clampHeight-1 < n {
		return f.clampHeight - 1
	}
	return n
}

// Step advances a session's match state by one URL (see Arena.Step),
// matching at most maxOrder trailing URLs and never more than the clamp
// height allows.
func (f *FrozenTree) Step(node uint32, url string, maxOrder int) uint32 {
	return f.arena.Step(node, url, f.maxOrder(maxOrder))
}

// PredictFrom is PredictInto for the context whose match state is node
// and whose current click is last, considered over its trailing
// maxOrder URLs: the tree candidates come from the state, the extra
// candidates from last. After stepping a context URL by URL it equals
// PredictInto on the context's last maxOrder URLs.
func (f *FrozenTree) PredictFrom(node uint32, last string, maxOrder int, buf []Prediction) []Prediction {
	return f.predictFrom(node, last, maxOrder, buf, nil)
}

// PredictMarking is PredictFrom that also sets, in used, the bit of
// each arena node the prediction matched or offered (bit i%64 of
// used[i/64] for node i): the marks of the path-utilization rate
// (Figure 2, right), which counts a root-to-leaf path as used when its
// leaf was. A longest match marks the match node and each child it
// predicts; the blend marks each node on the match's suffix-link chain
// and the child each surviving candidate came from; extra candidates
// (rule-3 links) mark nothing. Nodes above a match are interior and
// need no mark.
func (f *FrozenTree) PredictMarking(node uint32, last string, maxOrder int, buf []Prediction, used []uint64) []Prediction {
	return f.predictFrom(node, last, maxOrder, buf, used)
}

func (f *FrozenTree) predictFrom(node uint32, last string, maxOrder int, buf []Prediction, used []uint64) []Prediction {
	buf = buf[:0]
	node = f.arena.Clamp(node, f.maxOrder(maxOrder))
	switch {
	case f.blend:
		buf = f.arena.sec.appendBlend(buf, f.arena, node, f.threshold)
	case node != 0:
		buf = f.arena.AppendPredictions(buf, node, f.threshold, f.arena.Depth(node))
	}
	if used != nil {
		f.arena.markUsed(used, node, buf, f.blend)
	}
	// Extra candidates join by URL: a URL keeps its highest estimate,
	// and a tree candidate wins an exact tie.
	if linked := f.links[last]; len(linked) > 0 {
		for _, p := range linked {
			buf = mergeCandidate(buf, p)
		}
		SortPredictions(buf)
	}
	return buf
}

// markUsed sets the usage bits of a prediction from match state node
// whose tree candidates are preds: the match node (for a blend, every
// node on its suffix-link chain), and the child each candidate came
// from, found on the chain at the candidate's order.
func (a *Arena) markUsed(used []uint64, node uint32, preds []Prediction, blend bool) {
	for n := node; n != 0; n = a.link[n] {
		used[n/64] |= 1 << (n % 64)
		if !blend {
			break
		}
	}
	for _, p := range preds {
		n := node
		for int(a.depth[n]) != p.Order {
			n = a.link[n]
		}
		c, _ := a.sec.child(n, a.ids[p.URL])
		used[c/64] |= 1 << (c % 64)
	}
}

// mergeCandidate adds p to preds unless preds holds its URL already, in
// which case p replaces that entry only with a higher probability.
func mergeCandidate(preds []Prediction, p Prediction) []Prediction {
	for i := range preds {
		if preds[i].URL == p.URL {
			if p.Probability > preds[i].Probability {
				preds[i] = p
			}
			return preds
		}
	}
	return append(preds, p)
}

// NodeCount reports the source model's storage requirement in URL
// nodes (for PB-PPM, tree nodes plus rule-3 links).
func (f *FrozenTree) NodeCount() int { return f.nodeCount }

// Arena exposes the underlying arena (see ArenaHolder).
func (f *FrozenTree) Arena() *Arena { return f.arena }
