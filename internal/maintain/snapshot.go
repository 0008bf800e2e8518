// Snapshot distribution: the channel that lets out-of-process shards
// track the maintainer's model without retraining. The process that
// owns the training window (the publisher) serves its current frozen
// model image over HTTP; follower processes poll it, validate the
// image end to end, and install it through the same crash-safe publish
// gate local rebuilds use — a failed or corrupt download keeps the
// previous snapshot live.
//
// # Wire format (pbppmSN4)
//
// This file alone writes and reads the image. Every length, count,
// order and symbol id is a uvarint in its shortest encoding and no
// larger than math.MaxInt32, a string is its length followed by its
// bytes, and every fixed-width field is little-endian. A URL is written
// once, in the arena's URL table: the link table and the ranking name a
// URL the arena holds by its symbol id, and write a string (after a 0)
// only for a URL the arena lacks.
//
//	magic      "pbppmSN4"
//	version    uint64              the publisher's monotonic counter
//	name       string              the model's name
//	threshold  float64 bits        the minimum candidate probability
//	clamp      uvarint             the height cap, 0 for none
//	nodes      uvarint             the source model's node count
//	blend      1 byte              1 for the variable-order blend, else 0
//	arena      length, then the pbppmAR4 arena image verbatim
//	links      head count, then per head in byte order: the head's URL,
//	           its candidate count, and per candidate its URL,
//	           probability bits and order (PB-PPM's rule-3 links)
//	ranking    1 byte, 0 for none and 1 for a ranking: the URL count,
//	           then per URL in byte order: the URL and its access count
//	crc        uint64              CRC-64/ECMA over everything above
//
// The trailing checksum is verified before any field is read, so a
// truncated or bit-flipped download fails fast with ErrChecksum. The
// bytes are still untrusted past it: every length and count is checked
// against the bytes left before anything is allocated for it, and
// anything this encoder would not write is refused, so a model and its
// ranking have one image, and one ETag. Every model ships as a
// FrozenTree, so the image names no codec. An image in an older layout
// (pbppmSN1 to pbppmSN3) fails at the magic, and one around an older
// arena at the arena's.
package maintain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
)

const snapshotMagic = "pbppmSN4"

// ErrChecksum reports a snapshot whose trailing CRC does not match its
// contents — a truncated or corrupted transfer. Followers count it
// separately from decode failures because it implicates the transport,
// not the model.
var ErrChecksum = errors.New("maintain: snapshot checksum mismatch")

var snapshotCRC = crc64.MakeTable(crc64.ECMA)

// Snapshot is a decoded distribution payload: the revived model, the
// popularity ranking it was built from (nil when the publisher had
// none), and the publisher's version counter.
type Snapshot struct {
	Version uint64
	Model   *markov.FrozenTree
	Ranking *popularity.Ranking
}

// EncodeSnapshot writes one distribution payload of a frozen model.
// The ranking may be nil.
func EncodeSnapshot(w io.Writer, version uint64, model *markov.FrozenTree, rank *popularity.Ranking) error {
	img, err := snapshotBytes(version, model.Params(), model.Arena(), rank)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// snapshotBytes lays out the image of a model's serving parameters,
// its arena and a ranking (nil for none). It fails on an integer the
// decoder would refuse.
func snapshotBytes(version uint64, p markov.FrozenParams, a *markov.Arena, rank *popularity.Ranking) ([]byte, error) {
	img := binary.LittleEndian.AppendUint64([]byte(snapshotMagic), version)
	var err error
	putInt := func(v int64) {
		if (v < 0 || v > math.MaxInt32) && err == nil {
			err = fmt.Errorf("maintain: encoding snapshot: %d is outside [0, %d]", v, math.MaxInt32)
		}
		img = binary.AppendUvarint(img, uint64(v))
	}
	putString := func(s string) {
		putInt(int64(len(s)))
		img = append(img, s...)
	}
	putURL := func(u string) {
		if sym, held := a.Symbol(u); held {
			putInt(int64(sym))
			return
		}
		putInt(0)
		putString(u)
	}
	putFloat := func(f float64) { img = binary.LittleEndian.AppendUint64(img, math.Float64bits(f)) }
	putFlag := func(b bool) {
		if b {
			img = append(img, 1)
		} else {
			img = append(img, 0)
		}
	}

	putString(p.Name)
	putFloat(p.Threshold)
	putInt(int64(max(p.ClampHeight, 0))) // a cap of 0 or below is none
	putInt(int64(p.NodeCount))
	putFlag(p.Blend)
	putInt(int64(len(a.Bytes())))
	img = append(img, a.Bytes()...)

	heads := make([]string, 0, len(p.Links))
	for head := range p.Links {
		heads = append(heads, head)
	}
	slices.Sort(heads)
	putInt(int64(len(heads)))
	for _, head := range heads {
		putURL(head)
		putInt(int64(len(p.Links[head])))
		for _, c := range p.Links[head] {
			putURL(c.URL)
			putFloat(c.Probability)
			putInt(int64(c.Order))
		}
	}

	putFlag(rank != nil)
	if rank != nil {
		urls := rank.URLs()
		putInt(int64(len(urls)))
		for _, u := range urls {
			putURL(u)
			putInt(rank.Count(u))
		}
	}
	return binary.LittleEndian.AppendUint64(img, crc64.Checksum(img, snapshotCRC)), err
}

// DecodeSnapshot validates and revives one distribution payload. The
// checksum is verified over the raw bytes before any field is read; a
// mismatch returns an error wrapping ErrChecksum. The revived model
// does not retain data.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) >= len(snapshotMagic) && string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("maintain: bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	if len(data) < len(snapshotMagic)+8+8 {
		return nil, fmt.Errorf("maintain: snapshot too short (%d bytes): %w", len(data), ErrChecksum)
	}
	body := data[:len(data)-8]
	if crc64.Checksum(body, snapshotCRC) != binary.LittleEndian.Uint64(data[len(body):]) {
		return nil, ErrChecksum
	}
	version := binary.LittleEndian.Uint64(body[len(snapshotMagic):])
	r := snapshotReader{rest: body[len(snapshotMagic)+8:]}

	// Calls in a composite literal run in lexical order.
	p := markov.FrozenParams{
		Name:        r.string(),
		Threshold:   r.float(),
		ClampHeight: r.int(),
		NodeCount:   r.int(),
		Blend:       r.flag(),
	}
	if math.IsNaN(p.Threshold) {
		r.fail("NaN threshold")
	}
	arenaImg := r.next(r.int())
	if r.err != nil {
		return nil, r.err
	}
	// A copy, so the model keeps none of data alive and no caller
	// reusing data can change it.
	a, err := markov.ArenaFromBytes(bytes.Clone(arenaImg))
	if err != nil {
		return nil, fmt.Errorf("maintain: decoding snapshot: %w", err)
	}
	if p.NodeCount < a.NodeCount() {
		return nil, fmt.Errorf("maintain: decoding snapshot: node count %d below the arena's %d", p.NodeCount, a.NodeCount())
	}

	if heads := r.count(); heads > 0 {
		p.Links = make(map[string][]markov.Prediction)
		prev := ""
		for i := 0; i < heads && r.err == nil; i++ {
			head := r.url(a)
			if i > 0 && head <= prev {
				r.fail("link head %q does not follow %q", head, prev)
			}
			prev = head
			var preds []markov.Prediction
			for j, n := 0, r.count(); j < n && r.err == nil; j++ {
				c := markov.Prediction{URL: r.url(a), Probability: r.float(), Order: r.int()}
				if c.URL == "" || math.IsNaN(c.Probability) || c.Probability < 0 {
					r.fail("corrupt candidate %+v under %q", c, head)
				}
				preds = append(preds, c)
			}
			p.Links[head] = preds
		}
	}

	var rank *popularity.Ranking
	if r.flag() {
		rank = popularity.NewRanking()
		prev := ""
		for i, n := 0, r.count(); i < n && r.err == nil; i++ {
			u, count := r.url(a), r.int()
			if i > 0 && u <= prev {
				r.fail("ranking URL %q does not follow %q", u, prev)
			}
			rank.Observe(u, int64(count))
			prev = u
		}
	}

	if len(r.rest) > 0 {
		r.fail("%d trailing bytes", len(r.rest))
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Snapshot{Version: version, Model: markov.NewFrozenTree(a, p), Ranking: rank}, nil
}

// snapshotReader reads fields off an image. The first failure sticks:
// every later read returns a zero value, and err says what went wrong.
type snapshotReader struct {
	rest []byte
	err  error
}

func (r *snapshotReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("maintain: decoding snapshot: "+format, args...)
	}
}

// next returns the next n bytes, or nil when fewer are left.
func (r *snapshotReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.fail("length %d exceeds the %d bytes left", n, len(r.rest))
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}

// int reads a uvarint, refusing one past int32's range or in a longer
// encoding than its shortest: the encoder never writes either.
func (r *snapshotReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	switch {
	case n <= 0 || v > math.MaxInt32:
		r.fail("integer cut off or outside int32 range")
		return 0
	case n > 1 && r.rest[n-1] == 0:
		r.fail("integer %d not in its shortest encoding", v)
		return 0
	}
	r.rest = r.rest[n:]
	return int(v)
}

// count reads the number of entries that follow. Each takes at least
// one byte, so a count above the bytes left is refused before anything
// is allocated for it.
func (r *snapshotReader) count() int {
	n := r.int()
	if n > len(r.rest) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.rest))
		return 0
	}
	return n
}

func (r *snapshotReader) string() string { return string(r.next(r.int())) }

// url reads a URL: the symbol id of a URL of a, or a 0 and a string a
// does not hold.
func (r *snapshotReader) url(a *markov.Arena) string {
	sym := r.int()
	if sym == 0 {
		u := r.string()
		if _, held := a.Symbol(u); held && r.err == nil {
			r.fail("URL %q written as a string, but the arena holds it", u)
		}
		return u
	}
	if sym > a.SymbolCount() {
		r.fail("URL symbol %d past the arena's %d", sym, a.SymbolCount())
		return ""
	}
	return a.URLOf(uint32(sym))
}

func (r *snapshotReader) float() float64 {
	if b := r.next(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// flag reads a byte that must be 0 or 1.
func (r *snapshotReader) flag() bool {
	b := r.next(1)
	if b != nil && b[0] > 1 {
		r.fail("flag byte %d, want 0 or 1", b[0])
	}
	return b != nil && b[0] == 1
}

// snapshotImage is one encoded payload held for serving, swapped whole
// on every publish.
type snapshotImage struct {
	version uint64
	etag    string
	data    []byte
}

// publisherMetrics: the distribution channel's publisher-side metrics.
type publisherMetrics struct {
	version     *obs.Gauge
	bytes       *obs.Gauge
	publishes   *obs.Counter
	unsupported *obs.Counter
	servedFull  *obs.Counter
	served304   *obs.Counter
	servedWait  *obs.Counter
}

func newPublisherMetrics(reg *obs.Registry) *publisherMetrics {
	status := func(v string) obs.Label { return obs.Label{Name: "status", Value: v} }
	const reqHelp = "Snapshot endpoint responses, by status: full payload, not_modified (ETag match), or long-poll timeout answered 304."
	return &publisherMetrics{
		version: reg.Gauge("pbppm_snapshot_version",
			"Version of the snapshot currently offered to followers; bumps on every model publish."),
		bytes: reg.Gauge("pbppm_snapshot_bytes",
			"Encoded size of the snapshot currently offered to followers."),
		publishes: reg.Counter("pbppm_snapshot_publishes_total",
			"Model publishes encoded into a distribution snapshot."),
		unsupported: reg.Counter("pbppm_snapshot_unsupported_total",
			"Model publishes that could not be encoded for distribution (model has no frozen wire form or encoding failed); followers keep the previous snapshot."),
		servedFull: reg.Counter("pbppm_snapshot_requests_total", reqHelp, status("full")),
		served304:  reg.Counter("pbppm_snapshot_requests_total", reqHelp, status("not_modified")),
		servedWait: reg.Counter("pbppm_snapshot_requests_total", reqHelp, status("wait_timeout")),
	}
}

// PublisherConfig parameterizes a Publisher.
type PublisherConfig struct {
	// MaxWait caps a long-poll request's ?wait= duration; zero selects
	// 30 seconds.
	MaxWait time.Duration
	// Obs registers the publisher-side distribution metrics; nil keeps
	// them process-internal.
	Obs *obs.Registry
	// Logger receives encode-failure lines, tagged component=snapshot;
	// nil discards them.
	Logger *slog.Logger
}

func (c PublisherConfig) maxWait() time.Duration {
	if c.MaxWait <= 0 {
		return 30 * time.Second
	}
	return c.MaxWait
}

// Publisher serves the maintainer's current model as a versioned
// snapshot over HTTP. It subscribes to the maintainer, so every
// successful publish — initial build, delta merge, compaction, or an
// installed upstream snapshot — is re-encoded and offered with a fresh
// version; a model that cannot encode (no frozen wire form) is counted
// and skipped, leaving the previous snapshot on offer.
//
// GET responds 200 with the payload, ETag, and X-Snapshot-Version
// headers; with If-None-Match matching the current ETag it responds
// 304. A ?wait=DURATION query long-polls: the response is delayed until
// the version changes from the If-None-Match ETag or the wait (capped
// at MaxWait) elapses. Before the first publish the endpoint responds
// 404 — a follower treats that as "not yet", not an error.
type Publisher struct {
	cfg     PublisherConfig
	metrics *publisherMetrics
	log     *slog.Logger

	mu      sync.Mutex
	img     *snapshotImage
	changed chan struct{} // closed and replaced on every publish
	version uint64
}

// NewPublisher wires a publisher to the maintainer's publish stream.
// If a model is already published it is encoded immediately.
func NewPublisher(m *Maintainer, cfg PublisherConfig) *Publisher {
	p := &Publisher{
		cfg:     cfg,
		metrics: newPublisherMetrics(cfg.Obs),
		log:     obs.Component(cfg.Logger, "snapshot"),
		changed: make(chan struct{}),
	}
	m.Subscribe(func(model markov.Predictor) {
		// Subscribe delivers under the maintainer's publish lock, so
		// Ranking() here is exactly the ranking stored with this model.
		p.offer(model, m.Ranking())
	})
	return p
}

// offer encodes one published model and swaps it in as the current
// snapshot.
func (p *Publisher) offer(model markov.Predictor, rank *popularity.Ranking) {
	frozen, ok := model.(*markov.FrozenTree)
	if !ok {
		p.metrics.unsupported.Inc()
		p.log.Warn("published model has no frozen wire form; snapshot not updated",
			"model", model.Name())
		return
	}
	p.mu.Lock()
	version := p.version + 1
	p.mu.Unlock()

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, version, frozen, rank); err != nil {
		p.metrics.unsupported.Inc()
		p.log.Warn("snapshot encoding failed; snapshot not updated",
			"model", model.Name(), "error", err)
		return
	}
	data := buf.Bytes()
	img := &snapshotImage{
		version: version,
		etag:    fmt.Sprintf("\"v%d-%x\"", version, binary.LittleEndian.Uint64(data[len(data)-8:])),
		data:    data,
	}

	p.mu.Lock()
	p.version = version
	p.img = img
	close(p.changed)
	p.changed = make(chan struct{})
	p.mu.Unlock()

	p.metrics.publishes.Inc()
	p.metrics.version.Set(int64(version))
	p.metrics.bytes.Set(int64(len(data)))
	p.log.Info("snapshot offered", "version", version, "bytes", len(data), "etag", img.etag)
}

// current returns the offered image (nil before the first publish) and
// the change channel to wait on.
func (p *Publisher) current() (*snapshotImage, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.img, p.changed
}

// Version reports the currently offered snapshot version, zero before
// the first publish.
func (p *Publisher) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// ServeHTTP implements the snapshot endpoint; see the Publisher doc.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	img, changed := p.current()
	inm := r.Header.Get("If-None-Match")

	// Long-poll: hold the request while the client's ETag still matches
	// the offer, until a publish fires or the capped wait elapses.
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && img != nil && inm == img.etag {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait <= 0 {
			http.Error(w, "bad wait duration", http.StatusBadRequest)
			return
		}
		if max := p.cfg.maxWait(); wait > max {
			wait = max
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-changed:
			img, _ = p.current()
		case <-timer.C:
			p.metrics.servedWait.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		case <-r.Context().Done():
			return
		}
	}

	if img == nil {
		http.Error(w, "no snapshot published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("ETag", img.etag)
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(img.version, 10))
	if inm == img.etag {
		p.metrics.served304.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(img.data)))
	p.metrics.servedFull.Inc()
	if r.Method == http.MethodHead {
		return
	}
	w.Write(img.data)
}
