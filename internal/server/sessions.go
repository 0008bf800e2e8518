package server

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// This file holds the per-visitor state: a server-wide URL table, and in
// each context shard two pointer-free slabs — session records and hint
// records — and a pool of session URL ids. The paper's 30-minute idle
// rule (§2.2) makes a server hold every visitor of the last half hour,
// so this state is most of a busy server's heap. Kept as ids and
// indices instead of strings and small objects, it costs chunks and
// arrays the GC never scans instead of four or five small objects a
// session.

// urlTable numbers the URLs that session and hint records name, so the
// records hold 4-byte ids instead of strings. It holds only URLs the
// content store resolved, each as the store's own string, so the store
// bounds it; an id is never reused or forgotten.
//
// Readers take no lock. read is an immutable snapshot of the table; a
// URL missing from it is looked up, and added, in dirty under mu, and
// once as many lookups have missed read as dirty holds, dirty becomes
// the next snapshot. A server that has seen the URLs it serves reads
// them all from the snapshot, and each URL costs O(1) amortized to add.
type urlTable struct {
	read atomic.Pointer[urlSnapshot]

	mu sync.Mutex
	// dirty holds every id while URLs are being added, and is nil from
	// a promotion until the next miss; urls is append-only, so a
	// snapshot's prefix of it never changes.
	dirty  map[string]uint32
	urls   []string
	misses int
}

// urlSnapshot is one published state of a urlTable: the id of every URL
// it numbered and, indexed by id, the URLs.
type urlSnapshot struct {
	ids  map[string]uint32
	urls []string
}

func newURLTable() *urlTable {
	t := &urlTable{}
	t.read.Store(&urlSnapshot{})
	return t
}

// intern returns the id of url, numbering it on first sight. url must be
// a URL the content store resolved, to a document whose URL field is
// docURL: the table keeps docURL when the two are equal and a copy of
// url otherwise, so it pins neither a request line nor a model.
func (t *urlTable) intern(url, docURL string) uint32 {
	if id, ok := t.read.Load().ids[url]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := t.read.Load()
	if id, ok := snap.ids[url]; ok {
		return id
	}
	if t.dirty == nil {
		t.dirty = make(map[string]uint32, len(snap.ids)+1)
		for u, id := range snap.ids {
			t.dirty[u] = id
		}
	}
	id, ok := t.dirty[url]
	if !ok {
		if docURL != url {
			docURL = strings.Clone(url)
		}
		id = uint32(len(t.urls))
		t.urls = append(t.urls, docURL)
		t.dirty[docURL] = id
	}
	if t.misses++; t.misses >= len(t.dirty) {
		t.read.Store(&urlSnapshot{ids: t.dirty, urls: t.urls})
		t.dirty, t.misses = nil, 0
	}
	return id
}

// url returns the URL numbered id.
func (t *urlTable) url(id uint32) string {
	if urls := t.read.Load().urls; int(id) < len(urls) {
		return urls[id]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.urls[id]
}

// urlsOf returns the URLs of ids, in a slice of their own.
func (t *urlTable) urlsOf(ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = t.url(id)
	}
	return out
}

// slab is a growable array of T, kept in chunks of slabChunk, so that
// growing it never copies what it holds and its unused room stays under
// one chunk. Index 0 is never handed out and stands for none; freeing
// slots is left to the caller, which links free ones through T.
type slab[T any] struct {
	chunks []*[slabChunk]T
	n      int32 // indices handed out, counting 0
}

// slabChunk is the number of slots in a slab chunk: 512 bytes of records.
const slabChunk = 16

// at returns slot i.
func (s *slab[T]) at(i int32) *T { return &s.chunks[uint32(i)/slabChunk][uint32(i)%slabChunk] }

// grow hands out the next never-used slot.
func (s *slab[T]) grow() int32 {
	if s.n == 0 {
		s.n = 1
	}
	if int(s.n/slabChunk) == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	s.n++
	return s.n - 1
}

// contextShard is one slice of the per-client session state with its
// own lock, so concurrent clients hash to different locks. Its slabs
// and pool start empty, grow with its open sessions and reuse what
// closed ones free; once an expiry or flush leaves no session open,
// the shard drops them (see shrink).
type contextShard struct {
	mu sync.Mutex
	// contexts maps each client with an open session to its record.
	contexts map[string]int32
	// ending tracks in-flight OnSessionEnd deliveries by client: the
	// channel closes when the ended session's callbacks have run. A
	// session that ends while its client's previous end is still listed
	// here waits for that delivery first, so per-client session ends
	// reach OnSessionEnd in session order even when expiry and a new
	// request race (see endSession).
	ending map[string]chan struct{}

	sessions    slab[clientContext]
	freeSession int32 // first free session record, linked through head
	hints       slab[hintRecord]
	freeHint    int32 // first free hint record, linked through next
	// urls is the pool of the open sessions' URL ids. deadURLs counts
	// its entries no session's run covers: runs of closed sessions and
	// runs that moved. Once they are most of it, the pool is rewritten
	// with only the live runs (see compactURLs).
	urls     []uint32
	deadURLs int
}

// clientContext is one client's open access session, a record in its
// shard's sessions slab, guarded by the shard's lock. A free record
// links the next free one through head.
type clientContext struct {
	// last is the server stamp of the latest demand request.
	last int64
	// The session's URL ids are the shard's urls[off : off+n], in click
	// order, in a run with room for runRoom(n) ids.
	off, n uint32
	// head indexes the oldest of the session's outstanding hint records
	// in the shard's hints slab, and hints counts them: recently issued,
	// not-yet-confirmed hints, consumed when a demand request or client
	// report for one arrives.
	head  int32
	hints uint32
	// node is the session's match state in the streaming model published
	// as generation gen (see streamPredictor); a session whose gen is
	// not the current model's rebuilds node from its URL tail once. A
	// number rather than a model pointer, so an idle session pins no
	// retired model.
	gen  uint32
	node uint32
}

// hintRecord is one outstanding hint issued to a client, a record in
// its shard's hints slab: enough state to emit lifecycle events and
// score a later hit against the model that made the prediction. url is
// an id in the server's URL table; model indexes the live scorers (see
// liveScore.model), 0 for a record synthesized for an unmatched report
// (scored against the current model); issued is a server stamp (see
// Server.now); next links the session's next-newer record, or the next
// free one.
type hintRecord struct {
	prob    float64
	issued  int64
	url     uint32
	model   uint32
	next    int32
	fetched bool
}

// minRun is the room, in URL ids, of a session's first URL run: 1–3
// click visits never move theirs.
const minRun = 4

// runRoom is the room of the run of a session with n URLs. A run starts
// with minRun and doubles each time it fills, so its room is the least
// minRun·2^k that holds n, and 0 before the session's first URL.
func runRoom(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	return max(minRun, uint32(1)<<bits.Len32(n-1))
}

// open returns a fresh record for a new session.
func (sh *contextShard) open() int32 {
	i := sh.freeSession
	if i == 0 {
		return sh.sessions.grow()
	}
	ctx := sh.sessions.at(i)
	sh.freeSession = ctx.head
	*ctx = clientContext{}
	return i
}

// endedSession is what a closed session leaves for its end delivery,
// which runs without the shard lock: its URLs (nil when no one listens
// for session ends), its last stamp, and copies of its hint records that
// were fetched but never hit.
type endedSession struct {
	urls   []string
	last   int64
	wasted []hintRecord
}

// close ends the session in record i, freeing the record, its hint
// records and its URL run, and returns what its end delivery needs; it
// resolves the session's URLs through t only when withURLs is set.
func (sh *contextShard) close(i int32, t *urlTable, withURLs bool) endedSession {
	ctx := sh.sessions.at(i)
	e := endedSession{last: ctx.last}
	if withURLs {
		e.urls = t.urlsOf(sh.runOf(ctx))
	}
	for h := ctx.head; h != 0; {
		rec := *sh.hints.at(h)
		if rec.fetched {
			e.wasted = append(e.wasted, rec)
		}
		sh.freeHintRecord(h)
		h = rec.next
	}
	sh.deadURLs += int(runRoom(ctx.n))
	*ctx = clientContext{head: sh.freeSession}
	sh.freeSession = i
	return e
}

// runOf returns the session's URL ids. The slice aliases the pool, so
// it is valid only until the shard's next append or compaction.
func (sh *contextShard) runOf(ctx *clientContext) []uint32 {
	return sh.urls[ctx.off : ctx.off+ctx.n]
}

// appendURL appends URL id to the session's run. A full run moves to the
// pool's end with twice the room, so a session's appends cost O(1)
// amortized; the pool is compacted first if most of it is dead.
func (sh *contextShard) appendURL(ctx *clientContext, id uint32) {
	if room := runRoom(ctx.n); ctx.n == room {
		if 2*sh.deadURLs > len(sh.urls) {
			sh.compactURLs()
		}
		off := uint32(len(sh.urls))
		sh.urls = append(sh.urls, make([]uint32, runRoom(ctx.n+1))...)
		copy(sh.urls[off:], sh.runOf(ctx))
		sh.deadURLs += int(room)
		ctx.off = off
	}
	sh.urls[ctx.off+ctx.n] = id
	ctx.n++
}

// compactURLs rewrites the pool with only the open sessions' runs, each
// keeping its room, into a fresh array: dead runs are a pointer-free
// array's garbage, and no session's run is ordered by offset.
func (sh *contextShard) compactURLs() {
	pool := make([]uint32, 0, len(sh.urls)-sh.deadURLs)
	for _, i := range sh.contexts {
		ctx := sh.sessions.at(i)
		off := uint32(len(pool))
		pool = append(pool, sh.urls[ctx.off:ctx.off+runRoom(ctx.n)]...)
		ctx.off = off
	}
	sh.urls, sh.deadURLs = pool, 0
}

// shrink releases what the sessions an expiry or flush closed left
// behind: the slabs and the pool once no session is open, else the
// pool's dead runs once they are most of it.
func (sh *contextShard) shrink() {
	if len(sh.contexts) == 0 {
		sh.sessions, sh.freeSession = slab[clientContext]{}, 0
		sh.hints, sh.freeHint = slab[hintRecord]{}, 0
		sh.urls, sh.deadURLs = nil, 0
		return
	}
	if 2*sh.deadURLs > len(sh.urls) {
		sh.compactURLs()
	}
}

// newHintRecord returns a free hint record.
func (sh *contextShard) newHintRecord() int32 {
	h := sh.freeHint
	if h == 0 {
		return sh.hints.grow()
	}
	sh.freeHint = sh.hints.at(h).next
	return h
}

// freeHintRecord returns hint record h to the free list.
func (sh *contextShard) freeHintRecord(h int32) {
	*sh.hints.at(h) = hintRecord{next: sh.freeHint}
	sh.freeHint = h
}

// findHint returns the session's outstanding hint record for URL id and
// the record before it (0 when it is the oldest). When there is none, h
// is 0 and prev the newest record (0 when there are none).
func (sh *contextShard) findHint(ctx *clientContext, id uint32) (h, prev int32) {
	for h = ctx.head; h != 0; prev, h = h, sh.hints.at(h).next {
		if sh.hints.at(h).url == id {
			return h, prev
		}
	}
	return 0, prev
}

// takeHint removes the session's outstanding hint record for URL id and
// returns a copy of it; ok is false when there is none.
func (sh *contextShard) takeHint(ctx *clientContext, id uint32) (rec hintRecord, ok bool) {
	h, prev := sh.findHint(ctx, id)
	if h == 0 {
		return hintRecord{}, false
	}
	rec = *sh.hints.at(h)
	if prev == 0 {
		ctx.head = rec.next
	} else {
		sh.hints.at(prev).next = rec.next
	}
	ctx.hints--
	sh.freeHintRecord(h)
	return rec, true
}

// recordHinted remembers recs, the fresh records of the hints one
// response carried, bounded by cap; re-hinted URLs refresh their record
// in place (keeping its fetched state). It appends the records dropped
// over the cap, oldest first, to dropped and returns it, so the caller
// can emit Wasted events for any that were already fetched once it has
// released the shard lock.
func (sh *contextShard) recordHinted(ctx *clientContext, recs []hintRecord, cap int, dropped []hintRecord) []hintRecord {
	for _, r := range recs {
		h, newest := sh.findHint(ctx, r.url)
		if h != 0 {
			old := sh.hints.at(h)
			old.prob, old.model, old.issued = r.prob, r.model, r.issued
			continue
		}
		h = sh.newHintRecord()
		*sh.hints.at(h) = r
		if newest == 0 {
			ctx.head = h
		} else {
			sh.hints.at(newest).next = h
		}
		ctx.hints++
	}
	for ; int(ctx.hints) > cap; ctx.hints-- {
		h := ctx.head
		dropped = append(dropped, *sh.hints.at(h))
		ctx.head = sh.hints.at(h).next
		sh.freeHintRecord(h)
	}
	return dropped
}

// endSession registers the end of client's open session, whose record
// the caller (holding sh.mu) is closing: done is the channel the end's
// delivery closes, and prev the client's previous end delivery if it is
// still in flight. An end waits for its predecessor's, so chaining each
// end onto the one listed when it is registered keeps every client's
// ends in session order.
func (sh *contextShard) endSession(client string) (prev, done chan struct{}) {
	prev = sh.ending[client]
	done = make(chan struct{})
	sh.ending[client] = done
	return prev, done
}
