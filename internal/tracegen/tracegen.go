// Package tracegen generates synthetic Web-server access logs that
// stand in for the paper's NASA-KSC (July 1995) and UCB-CS (July 2000)
// traces, which are not redistributable here. The generator reproduces
// the statistical structure the paper's findings rest on:
//
//   - Zipf-like URL popularity over a hierarchical site;
//   - Regularity 1: most access sessions start from popular URLs while
//     most URLs of the server are unpopular;
//   - Regularity 2: long sessions are predominantly headed by popular
//     URLs;
//   - Regularity 3: surfing paths move from popular URLs toward less
//     popular ones and exit at the least popular;
//   - embedded image objects requested within seconds of their HTML
//     page; heavy-tailed document sizes; one-second timestamps; a mix
//     of browser clients and proxy addresses aggregating many users.
//
// The UCBCS profile weakens the regularities the way the paper
// describes for that trace ("the popularity grades of the starting
// URLs are evenly distributed … some of the popular entries may not
// lead to long sessions"), which is what makes PB-PPM's traffic
// overhead higher there.
//
// All generation is driven by an explicit seed: the same profile and
// seed always produce the identical trace. Every session is a walk by
// Walker, which load generators also take against a live server.
package tracegen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"pbppm/internal/trace"
)

// Page is one HTML document of the synthetic site.
type Page struct {
	URL    string
	Size   int64
	Images []Image
	// Links are indices into Site.Pages a surfer can move to.
	Links []int
	// Primary is the index of the preferred next page (-1 if none); a
	// fixed preferred continuation is what makes surfing paths repeat
	// and therefore learnable.
	Primary int
	// Hub is the page's section entry (its depth-1 ancestor, or the
	// home page). Surfers periodically return to hubs from anywhere in
	// a section — the popular-revisit behaviour PB-PPM's rule-3 links
	// exploit, which fixed-context models cannot see above the
	// prediction threshold because the predecessors vary.
	Hub int
	// Depth is the page's depth in the site hierarchy (0 = entry).
	Depth int
	// Weight is the page's intended relative popularity.
	Weight float64
}

// Image is an embedded object of a page.
type Image struct {
	URL  string
	Size int64
}

// Site is the synthetic server content.
type Site struct {
	Pages []Page
	// byWeight lists page indices sorted by descending weight; used for
	// popular-head sampling.
	byWeight []int
	// cumWeight is the cumulative weight distribution over byWeight.
	cumWeight []float64
	// grade buckets each page into the 0–3 popularity grades by its
	// position in byWeight, a rank-based approximation of the realized
	// grade that modulates session length (Regularity 2).
	grade []int
}

// Profile holds every knob of the generator. Use NASA or UCBCS for the
// paper's two workloads, then override fields as needed.
type Profile struct {
	Name string
	Seed int64

	// Days is the number of day windows to generate.
	Days int
	// SessionsPerDay is the mean session count per day (Poisson-ish).
	SessionsPerDay int

	// Pages is the number of HTML documents on the site.
	Pages int
	// Branching is the fan-out of the site hierarchy.
	Branching int
	// MaxImagesPerPage caps embedded images per page.
	MaxImagesPerPage int

	// ZipfS is the Zipf skew of intended page popularity (larger =
	// more skewed).
	ZipfS float64
	// ShuffleRanks decorrelates popularity from hierarchy depth and is
	// the main lever for the UCB-CS irregularity.
	ShuffleRanks bool

	// PopularHeadBias is the probability a session starts from the
	// popular entry set rather than from an arbitrary page.
	PopularHeadBias float64
	// EntryCount is the size of the popular entry set.
	EntryCount int

	// PrimaryProb is the probability a click follows the page's
	// preferred link; the remainder spreads over the other links.
	PrimaryProb float64
	// JumpPopularProb is the probability of an off-structure jump to a
	// popular page mid-session (produces the grade ascents the PB-PPM
	// link rule exploits). HubJumpShare of those jumps return to the
	// current page's section hub; the rest scatter over the entry set.
	JumpPopularProb float64
	// HubJumpShare is the fraction of popular jumps aimed at the
	// current section's hub.
	HubJumpShare float64

	// ContinueBase is the base probability a session continues after a
	// click; ContinueHeadBoost adds per intended grade of the session
	// head (Regularity 2). The effective value is clamped below 1.
	ContinueBase      float64
	ContinueHeadBoost float64
	// MaxSessionLen hard-caps session length.
	MaxSessionLen int

	// MeanThinkSeconds is the mean inter-click think time.
	MeanThinkSeconds float64

	// Browsers and Proxies size the client population; ProxyShare is
	// the fraction of sessions issued from proxy addresses.
	Browsers   int
	Proxies    int
	ProxyShare float64

	// HTMLSizeMedian/HTMLSizeSigma parameterize the lognormal HTML size
	// distribution; ImageSizeMedian/ImageSizeSigma likewise for images.
	HTMLSizeMedian  float64
	HTMLSizeSigma   float64
	ImageSizeMedian float64
	ImageSizeSigma  float64

	// Crawlers adds robot clients that sweep the site in index order
	// once per day — the systematic deep paths that real 1995-era logs
	// contain. They bloat the unbounded standard PPM tree and mislead
	// its longest matches, while LRS's repeat threshold and PB-PPM's
	// popularity-capped branch heights shrug them off.
	Crawlers int
	// CrawlerPagesPerDay caps how many pages one crawler sweeps per
	// day; zero sweeps the whole site.
	CrawlerPagesPerDay int
	// CrawlerSkipProb is the chance a crawler skips a page on a given
	// day, so successive sweeps differ slightly.
	CrawlerSkipProb float64

	// Diurnal shapes session start times like real server logs: a
	// single daily peak in the afternoon with a deep overnight trough.
	// False places sessions uniformly across the day.
	Diurnal bool
}

// NASA returns the profile standing in for the NASA-KSC July-1995
// trace: strong regularities, deep popularity skew, 8 day windows
// (enough for the paper's 1–7-day training sweeps plus a test day).
func NASA() Profile {
	return Profile{
		Name:              "nasa",
		Seed:              1995_07_01,
		Days:              8,
		SessionsPerDay:    1200,
		Pages:             600,
		Branching:         4,
		MaxImagesPerPage:  3,
		ZipfS:             1.0,
		ShuffleRanks:      false,
		PopularHeadBias:   0.80,
		EntryCount:        12,
		PrimaryProb:       0.65,
		JumpPopularProb:   0.10,
		HubJumpShare:      0.75,
		ContinueBase:      0.48,
		ContinueHeadBoost: 0.10,
		MaxSessionLen:     20,
		MeanThinkSeconds:  35,
		Browsers:          300,
		Proxies:           12,
		ProxyShare:        0.15,
		HTMLSizeMedian:    3 * 1024,
		HTMLSizeSigma:     0.7,
		ImageSizeMedian:   1200,
		ImageSizeSigma:    0.6,
		Crawlers:          2,
		CrawlerSkipProb:   0.10,
	}
}

// UCBCS returns the profile standing in for the UCB-CS July-2000
// trace: a larger, flatter site, heads spread evenly across popularity
// grades, and popular entries that do not reliably lead long sessions.
func UCBCS() Profile {
	return Profile{
		Name:               "ucbcs",
		Seed:               2000_07_01,
		Days:               6,
		SessionsPerDay:     2600,
		Pages:              1600,
		Branching:          5,
		MaxImagesPerPage:   3,
		ZipfS:              0.75,
		ShuffleRanks:       true,
		PopularHeadBias:    0.25,
		EntryCount:         60,
		PrimaryProb:        0.48,
		JumpPopularProb:    0.06,
		HubJumpShare:       0.4,
		ContinueBase:       0.55,
		ContinueHeadBoost:  0.0,
		MaxSessionLen:      20,
		MeanThinkSeconds:   30,
		Browsers:           450,
		Proxies:            10,
		ProxyShare:         0.12,
		HTMLSizeMedian:     4 * 1024,
		HTMLSizeSigma:      0.8,
		ImageSizeMedian:    1536,
		ImageSizeSigma:     0.7,
		Crawlers:           3,
		CrawlerPagesPerDay: 500,
		CrawlerSkipProb:    0.15,
	}
}

// validate rejects nonsensical profiles early with a descriptive error.
func (p Profile) validate() error {
	switch {
	case p.Days <= 0:
		return fmt.Errorf("tracegen: profile %q: Days %d must be positive", p.Name, p.Days)
	case p.Pages <= 1:
		return fmt.Errorf("tracegen: profile %q: Pages %d must exceed 1", p.Name, p.Pages)
	case p.SessionsPerDay <= 0:
		return fmt.Errorf("tracegen: profile %q: SessionsPerDay %d must be positive", p.Name, p.SessionsPerDay)
	case p.Branching <= 0:
		return fmt.Errorf("tracegen: profile %q: Branching %d must be positive", p.Name, p.Branching)
	case p.Browsers <= 0:
		return fmt.Errorf("tracegen: profile %q: Browsers %d must be positive", p.Name, p.Browsers)
	case p.ProxyShare > 0 && p.Proxies <= 0:
		return fmt.Errorf("tracegen: profile %q: ProxyShare %v needs Proxies > 0", p.Name, p.ProxyShare)
	case p.MaxSessionLen <= 0:
		return fmt.Errorf("tracegen: profile %q: MaxSessionLen %d must be positive", p.Name, p.MaxSessionLen)
	case p.ZipfS <= 0:
		return fmt.Errorf("tracegen: profile %q: ZipfS %v must be positive", p.Name, p.ZipfS)
	}
	return nil
}

// BuildSite constructs the deterministic synthetic site for a profile.
func BuildSite(p Profile) (*Site, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Site{Pages: make([]Page, p.Pages)}

	// Hierarchy: page 0 is the home page; page i's parent is
	// (i-1)/Branching, which lays pages out in BFS order so low indices
	// are shallow. A page's hub is its depth-1 ancestor (home for the
	// home page itself).
	depth := make([]int, p.Pages)
	hub := make([]int, p.Pages)
	for i := 1; i < p.Pages; i++ {
		parent := (i - 1) / p.Branching
		depth[i] = depth[parent] + 1
		if depth[i] <= 1 {
			hub[i] = i
		} else {
			hub[i] = hub[parent]
		}
	}

	// Intended popularity: Zipf over a rank permutation. Identity ranks
	// make shallow pages popular (NASA); shuffled ranks decorrelate
	// popularity from structure (UCB-CS).
	ranks := make([]int, p.Pages)
	for i := range ranks {
		ranks[i] = i
	}
	if p.ShuffleRanks {
		rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	}

	for i := range s.Pages {
		pg := &s.Pages[i]
		pg.Depth = depth[i]
		pg.Hub = hub[i]
		pg.URL = fmt.Sprintf("/d%d/page%04d.html", depth[i], i)
		pg.Size = lognormalSize(rng, p.HTMLSizeMedian, p.HTMLSizeSigma, 256)
		pg.Weight = 1 / math.Pow(float64(ranks[i]+1), p.ZipfS)

		nimg := 0
		if p.MaxImagesPerPage > 0 {
			nimg = rng.Intn(p.MaxImagesPerPage + 1)
		}
		for k := 0; k < nimg; k++ {
			pg.Images = append(pg.Images, Image{
				URL:  fmt.Sprintf("/img/page%04d_%d.gif", i, k),
				Size: lognormalSize(rng, p.ImageSizeMedian, p.ImageSizeSigma, 128),
			})
		}
	}

	// Link structure: children, parent, two random cross links, and one
	// link into the popular top set.
	for i := range s.Pages {
		pg := &s.Pages[i]
		linkSet := map[int]bool{}
		addLink := func(j int) {
			if j != i && j >= 0 && j < p.Pages && !linkSet[j] {
				linkSet[j] = true
				pg.Links = append(pg.Links, j)
			}
		}
		firstChild := i*p.Branching + 1
		for c := firstChild; c < firstChild+p.Branching; c++ {
			addLink(c)
		}
		if i > 0 {
			addLink((i - 1) / p.Branching)
		}
		addLink(rng.Intn(p.Pages))
		addLink(rng.Intn(p.Pages))
		top := p.EntryCount
		if top <= 0 || top > p.Pages {
			top = p.Pages
		}
		addLink(rng.Intn(top))

		pg.Primary = -1
		if firstChild < p.Pages {
			pg.Primary = firstChild
		} else if len(pg.Links) > 0 {
			pg.Primary = pg.Links[0]
		}
	}

	// Popularity sampling tables.
	s.byWeight = make([]int, p.Pages)
	for i := range s.byWeight {
		s.byWeight[i] = i
	}
	sort.Slice(s.byWeight, func(a, b int) bool {
		wa, wb := s.Pages[s.byWeight[a]].Weight, s.Pages[s.byWeight[b]].Weight
		if wa != wb {
			return wa > wb
		}
		return s.byWeight[a] < s.byWeight[b]
	})
	s.cumWeight = make([]float64, p.Pages)
	s.grade = make([]int, p.Pages)
	sum := 0.0
	for i, idx := range s.byWeight {
		sum += s.Pages[idx].Weight
		s.cumWeight[i] = sum
		switch {
		case i < p.Pages/50+1:
			s.grade[idx] = 3
		case i < p.Pages/10+1:
			s.grade[idx] = 2
		case i < p.Pages/3+1:
			s.grade[idx] = 1
		}
	}
	return s, nil
}

// Generate produces the synthetic trace for a profile.
func Generate(p Profile) (*trace.Trace, error) {
	site, err := BuildSite(p)
	if err != nil {
		return nil, err
	}
	return GenerateOn(site, p)
}

// GenerateOn produces a trace over an existing site; separating site
// construction lets callers generate multiple independent periods on
// identical content.
func GenerateOn(site *Site, p Profile) (*trace.Trace, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	walk, err := NewWalker(site, p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 0x9e3779b9))
	h := newHistory(site)
	for day := 0; day < p.Days; day++ {
		nSessions := poissonish(rng, float64(p.SessionsPerDay))
		for sess := 0; sess < nSessions; sess++ {
			client := h.client(pickClient(rng, p))
			start := time.Duration(day)*24*time.Hour + dayOffset(rng, p)
			h.emitSession(rng, walk, client, start)
		}
		for c := 0; c < p.Crawlers; c++ {
			h.emitCrawl(rng, site, p, c, day)
		}
	}
	return h.trace(), nil
}

// epoch is the start of every generated trace.
var epoch = time.Date(1995, 7, 1, 0, 0, 0, 0, time.UTC)

// history is a generated period held as compact events until it is
// ordered once and turned into records.
type history struct {
	// objs lists the site's pages by index, then each page's images.
	objs []object
	// firstImage[i] is the object id of page i's first image.
	firstImage []int32
	// urlRank[id] is the rank of objs[id].url among the distinct URLs
	// in byte order.
	urlRank []int32
	// clients holds the client names by id, in order of first use.
	clients []string
	ids     map[clientKey]int32
	events  []event // in emission order until trace sorts them
}

// object is a page or an image of the site.
type object struct {
	url  string
	size int64
}

// event is one request of the history in 24 bytes. Every generated
// record is a 200 GET of its object's full size, so the event holds
// only what varies.
type event struct {
	at time.Duration // request time after the epoch
	// client is the client's id until the events are sorted, then the
	// rank of its name among the distinct names in byte order.
	client int32
	obj    int32
	url    int32 // urlRank[obj]
	// seq is the emission index. It ends the sort key, so no two
	// events tie and an unstable sort gives the one stable order.
	seq int32
}

// clientKind and clientKey identify a requester before it has a name.
type clientKind uint8

const (
	browserClient clientKind = iota
	proxyClient
	crawlerClient
)

var clientFormats = [...]string{
	browserClient: "browser%05d.example.com",
	proxyClient:   "proxy%03d.example.net",
	crawlerClient: "crawler%02d.robot.example.org",
}

type clientKey struct {
	kind clientKind
	n    int
}

func newHistory(site *Site) *history {
	h := &history{
		objs:       make([]object, len(site.Pages)),
		firstImage: make([]int32, len(site.Pages)),
		ids:        make(map[clientKey]int32),
	}
	for i, pg := range site.Pages {
		h.objs[i] = object{pg.URL, pg.Size}
	}
	for i, pg := range site.Pages {
		h.firstImage[i] = int32(len(h.objs))
		for _, img := range pg.Images {
			h.objs = append(h.objs, object{img.URL, img.Size})
		}
	}
	urls := make([]string, len(h.objs))
	for i, o := range h.objs {
		urls[i] = o.url
	}
	h.urlRank, _ = rank(urls)
	return h
}

// client returns the id of a requester, naming it on first use.
func (h *history) client(k clientKey) int32 {
	id, ok := h.ids[k]
	if !ok {
		id = int32(len(h.clients))
		h.clients = append(h.clients, fmt.Sprintf(clientFormats[k.kind], k.n))
		h.ids[k] = id
	}
	return id
}

func (h *history) emit(client, obj int32, at time.Duration) {
	h.events = append(h.events, event{at: at, client: client, obj: obj,
		url: h.urlRank[obj], seq: int32(len(h.events))})
}

// trace orders the events by time, client name, URL and emission index
// (the order a stable sort by time, client and URL leaves them in) and
// builds the records.
func (h *history) trace() *trace.Trace {
	clientRank, names := rank(h.clients)
	for i := range h.events {
		h.events[i].client = clientRank[h.events[i].client]
	}
	slices.SortFunc(h.events, compareEvents)
	recs := make([]trace.Record, len(h.events))
	for i, e := range h.events {
		o, r := &h.objs[e.obj], &recs[i]
		r.Client, r.Time, r.Method = names[e.client], epoch.Add(e.at), "GET"
		r.URL, r.Status, r.Bytes = o.url, 200, o.size
	}
	return &trace.Trace{Epoch: epoch, Records: recs}
}

// compareEvents orders events by time, client-name rank, URL rank and
// emission index.
func compareEvents(a, b event) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.client != b.client:
		return cmp.Compare(a.client, b.client)
	case a.url != b.url:
		return cmp.Compare(a.url, b.url)
	}
	return cmp.Compare(a.seq, b.seq)
}

// rank returns each name's rank among the distinct names in byte order,
// and those distinct names in that order.
func rank(names []string) (ranks []int32, distinct []string) {
	order := make([]int32, len(names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	ranks = make([]int32, len(names))
	for _, i := range order {
		if len(distinct) == 0 || distinct[len(distinct)-1] != names[i] {
			distinct = append(distinct, names[i])
		}
		ranks[i] = int32(len(distinct) - 1)
	}
	return ranks, distinct
}

// crawlerInterval spaces crawler requests; 25 s keeps a sweep inside
// one access session (no 30-minute gaps).
const crawlerInterval = 25 * time.Second

// emitCrawl sweeps the site in page-index order for one robot client,
// skipping a random subset of pages so successive days' sweeps differ.
// Crawlers fetch HTML only (1990s robots rarely pulled images) at a
// steady interval short enough that a sweep forms one access session.
func (h *history) emitCrawl(rng *rand.Rand, site *Site, p Profile, crawler, day int) {
	limit := p.CrawlerPagesPerDay
	if limit <= 0 || limit > len(site.Pages) {
		limit = len(site.Pages)
	}
	client := h.client(clientKey{crawlerClient, crawler})
	// Stagger crawler start times so robots do not collide.
	t := time.Duration(day)*24*time.Hour +
		time.Duration(crawler)*3*time.Hour +
		time.Duration(rng.Int63n(int64(time.Hour)))
	visited := 0
	for i := 0; i < len(site.Pages) && visited < limit; i++ {
		if rng.Float64() < p.CrawlerSkipProb {
			continue
		}
		h.emit(client, int32(i), t)
		t += crawlerInterval
		visited++
	}
}

// dayOffset draws a session start offset within one day. The uniform
// variant spreads sessions over hours 1-23; the diurnal variant
// samples a raised-cosine curve peaking mid-afternoon with a deep
// overnight trough, via rejection sampling.
func dayOffset(rng *rand.Rand, p Profile) time.Duration {
	if !p.Diurnal {
		return time.Hour + time.Duration(rng.Int63n(int64(22*time.Hour)))
	}
	for {
		t := time.Duration(rng.Int63n(int64(24 * time.Hour)))
		hour := t.Hours()
		// Intensity in [0.1, 1], peaking at 15:00.
		intensity := 0.55 - 0.45*math.Cos((hour-3)*2*math.Pi/24)
		if rng.Float64() < intensity {
			return t
		}
	}
}

// pickClient selects a browser or proxy address for a session.
func pickClient(rng *rand.Rand, p Profile) clientKey {
	if p.Proxies > 0 && rng.Float64() < p.ProxyShare {
		return clientKey{proxyClient, rng.Intn(p.Proxies)}
	}
	return clientKey{browserClient, rng.Intn(p.Browsers)}
}

// emitSession walks one session and emits its requests.
func (h *history) emitSession(rng *rand.Rand, walk *Walker, client int32, start time.Duration) {
	cur, pCont := walk.Start(rng, 0)
	t := start
	for click := 0; click < walk.p.MaxSessionLen; click++ {
		h.emit(client, int32(cur), t)
		// Embedded images arrive within the 10-second fold window.
		for k := range walk.site.Pages[cur].Images {
			h.emit(client, h.firstImage[cur]+int32(k), t+time.Duration(1+k*2)*time.Second)
		}

		if rng.Float64() >= pCont {
			break
		}
		next, ok := walk.Next(rng, cur, 0)
		if !ok {
			return
		}
		cur = next

		think := time.Duration((rng.ExpFloat64()*walk.p.MeanThinkSeconds + 11)) * time.Second
		if think > 25*time.Minute {
			think = 25 * time.Minute
		}
		t += think
	}
}

// poissonish draws a session count: exact Knuth sampling for small
// means, a clamped normal approximation for large ones.
func poissonish(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k, prod := 0, 1.0
		for prod > l {
			k++
			prod *= rng.Float64()
		}
		return k - 1
	}
	n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return n
}

// lognormalSize draws a document size with the given median and
// log-space sigma, floored at min bytes.
func lognormalSize(rng *rand.Rand, median, sigma float64, min int64) int64 {
	if median <= 0 {
		return min
	}
	v := int64(math.Round(median * math.Exp(sigma*rng.NormFloat64())))
	if v < min {
		return min
	}
	return v
}

// NASAFullMonth returns the NASA profile stretched to the paper's full
// 31-day July-1995 span. Generation stays fast, but training the
// unbounded standard model on a month of data reaches millions of
// nodes — exactly the scalability pressure Table 1 documents.
func NASAFullMonth() Profile {
	p := NASA()
	p.Days = 31
	return p
}
