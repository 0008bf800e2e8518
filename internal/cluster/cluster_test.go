package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/server"
)

// --- shared fixtures -------------------------------------------------

func testStore() server.MapStore {
	store := server.MapStore{}
	for url, size := range map[string]int{
		"/home":       4000,
		"/news":       3000,
		"/news/today": 2500,
		"/sports":     3500,
		"/blog":       1500,
	} {
		store[url] = server.Document{URL: url, Body: make([]byte, size)}
	}
	return store
}

func testGrades() popularity.FixedGrades {
	return popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1, "/sports": 2, "/blog": 1}
}

// trainedModel knows /home -> /news -> /news/today strongly and
// /sports -> /blog weakly enough to still hint.
func trainedModel() *core.Model {
	m := core.New(testGrades(), core.Config{})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"/home", "/news", "/news/today"})
		m.TrainSequence([]string{"/sports", "/blog"})
	}
	return m
}

func get(t *testing.T, h http.Handler, url, remoteAddr, clientHeader string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	req.RemoteAddr = remoteAddr
	if clientHeader != "" {
		req.Header.Set(server.HeaderClientID, clientHeader)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// --- ring ------------------------------------------------------------

func TestRingDeterministicAndBalanced(t *testing.T) {
	a := newRing([]int{0, 1, 2, 3})
	b := newRing([]int{3, 1, 0, 2}) // same set, different order
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("ring differs at %d: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}

	// Load split over many client identities stays within a reasonable
	// band of even (128 virtual nodes keeps it tight).
	const keys = 10000
	counts := map[int]int{}
	for i := 0; i < keys; i++ {
		id, ok := a.owner(fmt.Sprintf("client-%d", i))
		if !ok {
			t.Fatal("owner reported empty ring")
		}
		counts[id]++
	}
	for shard, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.40 {
			t.Errorf("shard %d owns %.1f%% of keys, want near 25%%", shard, 100*frac)
		}
	}
}

func TestRingRemapsOnlyMovedArcs(t *testing.T) {
	before := newRing([]int{0, 1, 2, 3})
	after := newRing([]int{0, 1, 2, 3, 4})
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("client-%d", i)
		b, _ := before.owner(key)
		a, _ := after.owner(key)
		if a != b {
			if a != 4 {
				t.Fatalf("key %q moved %d -> %d, not to the new shard", key, b, a)
			}
			moved++
		}
	}
	// Consistent hashing moves ~1/5 of keys to the newcomer; modulo
	// hashing would move ~4/5. Assert we are on the right side by a
	// wide margin.
	if frac := float64(moved) / keys; frac < 0.10 || frac > 0.35 {
		t.Errorf("add-shard moved %.1f%% of keys, want ~20%%", 100*frac)
	}

	if _, ok := newRing(nil).owner("x"); ok {
		t.Error("empty ring must report no owner")
	}
}

// Regression for the weak-avalanche bug: sequential client identities
// (the common real shape — numbered load-generator clients, adjacent
// IPs) hash through raw FNV-1a into a few narrow bands of the circle,
// and a joining shard's arcs can miss every one of them — a 2→3 join
// was observed remapping 0 of 20 live clients. With the mixed ring
// hash, even a small sequential pool remaps ~1/N of its keys.
func TestRingSpreadsSequentialIdentities(t *testing.T) {
	before := newRing([]int{0, 1})
	after := newRing([]int{0, 1, 2})
	for _, shape := range []string{"lg-c%04d", "client-%d", "10.0.0.%d"} {
		moved := 0
		const n = 40
		for i := 0; i < n; i++ {
			key := fmt.Sprintf(shape, i)
			b, _ := before.owner(key)
			a, _ := after.owner(key)
			if a != b {
				moved++
			}
		}
		// Expect ~n/3; accept a wide band, but never the degenerate
		// none-moved (the bug) or most-moved (modulo-style reshuffle).
		if moved < n/10 || moved > n*6/10 {
			t.Errorf("%s: join remapped %d/%d sequential keys, want ~%d", shape, moved, n, n/3)
		}
	}
}

// --- routing and identity --------------------------------------------

// The router resolves identity once and hands it to the ring owner, so
// each client's context lives whole on one shard.
func TestClusterRoutesByClientIdentity(t *testing.T) {
	c, err := New(Config{Shards: 4, Store: testStore()})
	if err != nil {
		t.Fatal(err)
	}
	clients := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for _, id := range clients {
		get(t, c, "/home", "203.0.113.1:999", id)
		get(t, c, "/news", "203.0.113.1:999", id)
	}
	for _, id := range clients {
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		for _, sid := range c.ShardIDs() {
			sessions := c.Shard(sid).OpenSessions()
			found := false
			for _, os := range sessions {
				if os.Client == id {
					found = true
					if os.URLs != 2 {
						t.Errorf("%s on shard %d has %d URLs, want 2", id, sid, os.URLs)
					}
				}
			}
			if found != (sid == owner) {
				t.Errorf("%s: session on shard %d (owner %d)", id, sid, owner)
			}
		}
	}
	if st := c.Stats(); st.DemandRequests != int64(2*len(clients)) {
		t.Errorf("aggregate DemandRequests = %d, want %d", st.DemandRequests, 2*len(clients))
	}
}

// End to end over real sockets: the identity the router resolves from
// the wire is the one the owning shard keeps the session under.
func TestClusterIdentityStampOverHTTP(t *testing.T) {
	c, err := New(Config{Shards: 2, Store: testStore()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/home", nil)
	req.Header.Set(server.HeaderClientID, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	owner, _ := c.Owner("alice")
	sessions := c.Shard(owner).OpenSessions()
	if len(sessions) != 1 || sessions[0].Client != "alice" {
		t.Fatalf("owner shard sessions = %+v, want one for alice", sessions)
	}
}

// SetPredictor replicates one immutable snapshot to every shard, and a
// shard joining later catches up on the latest publication.
func TestPredictorFanOutAndCatchUp(t *testing.T) {
	c, err := New(Config{Shards: 2, Store: testStore()})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, c, "/home", "1.2.3.4:1", "alice"); rec.Header().Get(server.HeaderPrefetch) != "" {
		t.Fatal("unpublished cluster issued hints")
	}

	c.SetPredictor(trainedModel())
	c.SetGrader(testGrades())
	// Every shard hints now: route distinct clients until each shard has
	// issued at least one hint.
	for i := 0; i < 64; i++ {
		get(t, c, "/home", "1.2.3.4:1", fmt.Sprintf("c%d", i))
	}
	for _, id := range c.ShardIDs() {
		if st := c.Shard(id).Stats(); st.HintsIssued == 0 {
			t.Errorf("shard %d issued no hints after fan-out", id)
		}
	}

	id, _, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		get(t, c, "/home", "1.2.3.4:1", fmt.Sprintf("late%d", i))
	}
	if st := c.Shard(id).Stats(); st.HintsIssued == 0 {
		t.Errorf("late-joining shard %d did not catch up on the published model", id)
	}
}

// A cluster given a live model freezes it once, before the fan-out:
// every shard — including one that joins later — serves the same
// arena-backed snapshot, whether the model came through the shard
// config at construction or through SetPredictor.
func TestClusterInstallsOneSnapshotOnEveryShard(t *testing.T) {
	live := trainedModel()
	c, err := New(Config{Shards: 3, Store: testStore(), ShardConfig: server.Config{Predictor: live}})
	if err != nil {
		t.Fatal(err)
	}
	shared := func(stage string) markov.Predictor {
		t.Helper()
		var first markov.Predictor
		for _, id := range c.ShardIDs() {
			p := c.Shard(id).Predictor()
			if _, ok := p.(markov.ArenaHolder); !ok {
				t.Fatalf("%s: shard %d serves %T, want an arena-backed snapshot", stage, id, p)
			}
			if first == nil {
				first = p
			} else if p != first {
				t.Fatalf("%s: shard %d serves a different snapshot than its peers", stage, id)
			}
		}
		return first
	}
	built := shared("New")
	if _, _, err := c.AddShard(); err != nil {
		t.Fatal(err)
	}
	if shared("join") != built {
		t.Fatal("a joining shard did not get the published snapshot")
	}
	c.SetPredictor(live)
	if shared("SetPredictor") == built {
		t.Fatal("SetPredictor left the old snapshot installed")
	}
}

// --- rebalance accounting and the unmatched-report regression --------

// A shard join reprices the ring: the report must count exactly the
// open sessions whose owner moved, and a hit report for a hint the old
// owner issued must surface on the new owner as unmatched — counted,
// not silently dropped — while still scoring the hit.
func TestRebalanceReportAndUnmatchedHitReports(t *testing.T) {
	c, err := New(Config{
		Shards:      2,
		Store:       testStore(),
		ShardConfig: server.Config{Predictor: trainedModel(), Grades: testGrades()},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Open hinted sessions for many clients and record owners.
	const n = 40
	ownersBefore := map[string]int{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("client-%d", i)
		get(t, c, "/home", "1.2.3.4:1", id) // hints /news
		ownersBefore[id], _ = c.Owner(id)
	}
	hintsBefore := map[string]int{}
	for _, sid := range c.ShardIDs() {
		for _, os := range c.Shard(sid).OpenSessions() {
			hintsBefore[os.Client] = os.Hints
		}
	}

	newID, rep, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	wantRemapped, wantOrphaned := 0, 0
	var movedClient string
	for id, before := range ownersBefore {
		after, _ := c.Owner(id)
		if after != before {
			if after != newID {
				t.Fatalf("%s moved %d -> %d, not to the new shard", id, before, after)
			}
			wantRemapped++
			wantOrphaned += hintsBefore[id]
			movedClient = id
		}
	}
	if rep.SessionsRemapped != wantRemapped || rep.HintsOrphaned != wantOrphaned {
		t.Errorf("report = %+v, want remapped %d orphaned %d", rep, wantRemapped, wantOrphaned)
	}
	if rep.Kind != "join" || rep.Shard != newID || rep.ShardsAfter != 3 {
		t.Errorf("report metadata = %+v", rep)
	}
	if wantRemapped == 0 {
		t.Fatal("no client remapped by the join; enlarge n")
	}

	// The remapped client reports its prefetch hit for /news. The new
	// owner never issued that hint: unmatched, counted, still scored.
	before := c.Stats()
	req := httptest.NewRequest("GET", "/", nil)
	req.RemoteAddr = "1.2.3.4:1"
	req.Header.Set(server.HeaderClientID, movedClient)
	req.Header.Set(server.HeaderPrefetchReportOnly, "1")
	req.Header.Set(server.HeaderPrefetchReport, server.FormatReport([]server.ReportEntry{
		{URL: "/news", Outcome: quality.PrefetchHit},
	}))
	c.ServeHTTP(httptest.NewRecorder(), req)

	after := c.Stats()
	if got := after.HintReportsUnmatched - before.HintReportsUnmatched; got != 1 {
		t.Errorf("HintReportsUnmatched delta = %d, want 1", got)
	}
	if newOwnerStats := c.Shard(newID).Stats(); newOwnerStats.HintReportsUnmatched != 1 {
		t.Errorf("unmatched report not counted on the new owner: %+v", newOwnerStats)
	}
	if got := c.QualityTotal().PrefetchHits; got == 0 {
		t.Error("unmatched report was not scored as a prefetch hit")
	}
}

// A shard leave remaps everything it held and flushes its open sessions
// through OnSessionEnd so training data survives the departure.
func TestRemoveShardFlushesSessions(t *testing.T) {
	var mu sync.Mutex
	ended := map[string][]string{}
	c, err := New(Config{
		Shards: 3,
		Store:  testStore(),
		ShardConfig: server.Config{
			OnSessionEnd: func(client string, urls []string, _ time.Time) {
				mu.Lock()
				ended[client] = urls
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		get(t, c, "/home", "1.2.3.4:1", fmt.Sprintf("client-%d", i))
	}
	victim := c.ShardIDs()[0]
	held := len(c.Shard(victim).OpenSessions())
	if held == 0 {
		t.Fatal("victim shard held no sessions; enlarge n")
	}

	rep, err := c.RemoveShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "leave" || rep.SessionsRemapped != held || rep.ShardsAfter != 2 {
		t.Errorf("leave report = %+v, want %d sessions remapped over 2 shards", rep, held)
	}
	mu.Lock()
	flushed := len(ended)
	mu.Unlock()
	if flushed != held {
		t.Errorf("OnSessionEnd delivered %d sessions, want %d", flushed, held)
	}
	if c.Shard(victim) != nil {
		t.Error("removed shard still resolvable")
	}
	if _, err := c.RemoveShard(victim); err == nil {
		t.Error("removing a removed shard must error")
	}

	// The last shard cannot leave.
	ids := c.ShardIDs()
	if _, err := c.RemoveShard(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveShard(ids[1]); err == nil {
		t.Error("removing the last shard must be refused")
	}
}

// --- equivalence with a single node ----------------------------------

// replayTrace drives a fixed set of client walks through one handler
// with cooperating prefetch clients (synchronous, so each walk is
// deterministic), then flushes reports. Walks run sequentially; hint
// accounting is per-client, so interleaving cannot change the totals.
func replayTrace(t *testing.T, baseURL string) {
	t.Helper()
	walks := map[string][]string{
		"alice": {"/home", "/news", "/news/today"}, // hint hit chain
		"bob":   {"/home", "/sports", "/blog"},     // hinted /news wasted
		"carol": {"/sports", "/blog", "/home"},     // weak chain hit
		"dave":  {"/news", "/news/today", "/home"}, // mid-chain entry
		"erin":  {"/home", "/news", "/home"},       // partial hit, revisit
	}
	// Deterministic order.
	ids := []string{"alice", "bob", "carol", "dave", "erin"}
	for _, id := range ids {
		cl, err := server.NewClient(server.ClientConfig{
			ID:                  id,
			BaseURL:             baseURL,
			SynchronousPrefetch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range walks[id] {
			if _, err := cl.Get(url); err != nil {
				t.Fatalf("%s GET %s: %v", id, url, err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("%s flush: %v", id, err)
		}
	}
}

// eventTally counts hint-lifecycle transitions by type; shared across
// shards the way a maintainer callback would be.
type eventTally struct {
	mu sync.Mutex
	n  [4]int
}

func (e *eventTally) record(ev server.HintEvent) {
	e.mu.Lock()
	e.n[ev.Type]++
	e.mu.Unlock()
}

// The acceptance-criteria equivalence test: N shards replaying one
// trace must produce the same integer hint accounting — issued,
// fetched, hit, wasted — and the same quality snapshot as a single
// node, because routing by client identity keeps each client's
// serving state whole on one shard and every shard serves the same
// immutable model.
func TestClusterEquivalenceWithSingleNode(t *testing.T) {
	base := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)

	run := func(shards int) (quality.Snapshot, server.Stats, [4]int) {
		var nanos atomic.Int64
		tally := &eventTally{}
		cfg := server.Config{
			Predictor:   trainedModel(),
			Grades:      testGrades(),
			Clock:       func() time.Time { return base.Add(time.Duration(nanos.Load())) },
			OnHintEvent: tally.record,
		}
		var handler http.Handler
		var qual func() quality.Snapshot
		var stats func() server.Stats
		var expire func() int
		if shards == 1 {
			srv := server.New(testStore(), cfg)
			handler, qual, stats, expire = srv, srv.QualityTotal, srv.Stats, srv.ExpireSessions
		} else {
			c, err := New(Config{Shards: shards, Store: testStore(), ShardConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			handler, qual, stats, expire = c, c.QualityTotal, c.Stats, c.ExpireSessions
		}

		ts := httptest.NewServer(handler)
		defer ts.Close()
		replayTrace(t, ts.URL)

		// Close every session so fetched-but-never-hit hints emit Wasted.
		nanos.Add(int64(24 * time.Hour))
		expire()

		tally.mu.Lock()
		events := tally.n
		tally.mu.Unlock()
		return qual(), stats(), events
	}

	wantQual, wantStats, wantEvents := run(1)
	if wantEvents[server.HintIssued] == 0 || wantEvents[server.HintHit] == 0 || wantEvents[server.HintWasted] == 0 {
		t.Fatalf("trace too weak to test equivalence: events = %v", wantEvents)
	}

	for _, n := range []int{2, 4} {
		gotQual, gotStats, gotEvents := run(n)
		if gotEvents != wantEvents {
			t.Errorf("%d shards: lifecycle events = %v (issued,fetched,hit,wasted), single node = %v",
				n, gotEvents, wantEvents)
		}
		if gotQual != wantQual {
			t.Errorf("%d shards: quality = %+v, single node = %+v", n, gotQual, wantQual)
		}
		if gotStats.HintsIssued != wantStats.HintsIssued ||
			gotStats.HintFetches != wantStats.HintFetches ||
			gotStats.HintHits != wantStats.HintHits ||
			gotStats.DemandRequests != wantStats.DemandRequests ||
			gotStats.HintReportsUnmatched != wantStats.HintReportsUnmatched {
			t.Errorf("%d shards: stats = %+v, single node = %+v", n, gotStats, wantStats)
		}
	}
}

// --- smoke (run under -race in CI) -----------------------------------

// TestClusterSmoke boots a 4-shard cluster behind the router, pushes
// ~500 concurrent requests from many clients, and checks the books:
// aggregate completions match what was sent, per-shard counters sum to
// the aggregate, and the router and shard expositions lint clean.
func TestClusterSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Shards:      4,
		Store:       testStore(),
		ShardConfig: server.Config{Predictor: trainedModel(), Grades: testGrades()},
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	defer ts.Close()

	const (
		nClients = 25
		perCli   = 20 // 500 requests total
	)
	urls := []string{"/home", "/news", "/news/today", "/sports", "/blog"}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perCli; k++ {
				req, _ := http.NewRequest("GET", ts.URL+urls[k%len(urls)], nil)
				req.Header.Set(server.HeaderClientID, fmt.Sprintf("smoke-%d", i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					if err == nil {
						resp.Body.Close()
					}
					continue
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}

	const total = nClients * perCli
	if st := c.Stats(); st.DemandRequests != total {
		t.Errorf("aggregate DemandRequests = %d, want %d", st.DemandRequests, total)
	}
	var perShard int64
	for _, id := range c.ShardIDs() {
		perShard += c.Shard(id).Stats().DemandRequests
	}
	if perShard != total {
		t.Errorf("per-shard sum = %d, want %d", perShard, total)
	}

	// Expositions lint clean: the router registry and every shard's.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(sb.String()); err != nil {
		t.Errorf("router exposition: %v", err)
	}
	if !strings.Contains(sb.String(), `pbppm_shard_requests_total{shard="0"}`) {
		t.Error("router exposition missing per-shard request counters")
	}
	for _, id := range c.ShardIDs() {
		sb.Reset()
		if err := c.ShardRegistry(id).WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateExposition(sb.String()); err != nil {
			t.Errorf("shard %d exposition: %v", id, err)
		}
	}
}

// --- remote backends -------------------------------------------------

// A cluster of remote backends proxies to shard processes over HTTP,
// stamping the resolved identity; shards configured to trust the
// router's host honor the stamp even though every connection shares one
// peer address.
func TestRouterProxiesToHTTPBackends(t *testing.T) {
	// Shards trust the loopback host the proxy connects from.
	shards := make([]*server.Server, 2)
	backends := make([]string, 2)
	for i := range shards {
		shards[i] = server.New(testStore(), server.Config{TrustedPeers: []string{"127.0.0.1", "::1"}})
		ts := httptest.NewServer(shards[i])
		defer ts.Close()
		backends[i] = ts.URL
	}
	rt, err := New(Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	clients := []string{"alice", "bob", "carol", "dave"}
	for _, id := range clients {
		req, _ := http.NewRequest("GET", rts.URL+"/home", nil)
		req.Header.Set(server.HeaderClientID, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", id, resp.Status)
		}
	}
	var total int
	for i, sh := range shards {
		sessions := sh.OpenSessions()
		for _, os := range sessions {
			owner, _ := rt.Owner(os.Client)
			if owner != i {
				t.Errorf("%s landed on backend %d, ring owner %d", os.Client, i, owner)
			}
		}
		total += len(sessions)
	}
	if total != len(clients) {
		t.Errorf("distinct sessions = %d, want %d", total, len(clients))
	}

	if _, err := New(Config{}); err == nil {
		t.Error("router with no backends must error")
	}
	if _, err := New(Config{Backends: []string{"::bad::"}}); err == nil {
		t.Error("bad backend URL must error")
	}
}

// New refuses a config without shards or store, and one that mixes
// remote backends with in-process shards or a store. Membership
// changes that only an in-process cluster supports are refused on a
// cluster of remote backends.
func TestNewRejectsBadConfig(t *testing.T) {
	const backend = "http://127.0.0.1:1"
	for name, cfg := range map[string]Config{
		"no shards":         {Store: testStore()},
		"no store":          {Shards: 1},
		"bad backend":       {Backends: []string{"::bad::"}},
		"backends + shards": {Backends: []string{backend}, Shards: 1},
		"backends + store":  {Backends: []string{backend}, Store: testStore()},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, cfg)
		}
	}

	c, err := New(Config{Backends: []string{backend}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddShard(); err == nil {
		t.Error("AddShard on remote backends must be refused")
	}
	if _, err := c.RemoveShard(0); err == nil {
		t.Error("RemoveShard of a remote backend must be refused")
	}
	if c.Shard(0) != nil || c.ShardRegistry(0) != nil {
		t.Error("a remote backend must not resolve as an in-process shard")
	}
}

// The in-process hop resolves the identity, reads the routing table
// and calls the owner with the identity as an argument: a demand
// request through the cluster allocates exactly what the owning
// shard's own ServeHTTP allocates.
func TestClusterHopAddsNoAllocations(t *testing.T) {
	c, err := New(Config{
		Shards:      2,
		Store:       testStore(),
		ShardConfig: server.Config{Predictor: trainedModel(), Grades: testGrades()},
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := c.Owner("alice")
	shard := c.Shard(owner)

	urls := []string{"/home", "/news", "/news/today"}
	req := httptest.NewRequest(http.MethodGet, urls[0], nil)
	req.RemoteAddr = "203.0.113.7:1234"
	req.Header.Set(server.HeaderClientID, "alice")
	allocs := func(h http.Handler) float64 {
		i := 0
		return testing.AllocsPerRun(300, func() {
			req.URL.Path = urls[i%len(urls)]
			i++
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
	}
	direct := allocs(shard)
	if hop := allocs(c); hop != direct {
		t.Errorf("cluster hop: %v allocs/op, owning shard's ServeHTTP: %v", hop, direct)
	}
	if st := shard.Stats(); st.DemandRequests == 0 || st.HintsIssued == 0 {
		t.Fatalf("owner served %+v; the measured path must issue hints", st)
	}
}

// Clients keep requesting while shards join and leave. Every request
// is answered, and the books balance across the membership changes:
// the demand counts of every shard that was ever on the ring, and the
// router's per-shard request counters, each sum to the requests sent.
func TestRoutingUnderMembershipChange(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Shards:      2,
		Store:       testStore(),
		ShardConfig: server.Config{Predictor: trainedModel(), Grades: testGrades()},
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int]*server.Server{}
	for _, id := range c.ShardIDs() {
		shards[id] = c.Shard(id)
	}

	const clients, cycles = 6, 20
	urls := []string{"/home", "/news", "/news/today", "/sports", "/blog"}
	var sent, failures atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, urls[k%len(urls)], nil)
				req.Header.Set(server.HeaderClientID, fmt.Sprintf("churn-%d", i))
				rec := httptest.NewRecorder()
				c.ServeHTTP(rec, req)
				sent.Add(1)
				if rec.Code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(i)
	}

	// Alternate joins and leaves, with a further `clients` requests sent
	// after each change; each leave takes the oldest shard, so the
	// starting shards go too.
	traffic := func() {
		for n := sent.Load() + clients; sent.Load() < n; {
			runtime.Gosched()
		}
	}
	for n := 0; n < cycles; n++ {
		id, _, err := c.AddShard()
		if err != nil {
			t.Fatal(err)
		}
		shards[id] = c.Shard(id)
		traffic()
		if _, err := c.RemoveShard(c.ShardIDs()[0]); err != nil {
			t.Fatal(err)
		}
		traffic()
	}
	close(done)
	wg.Wait()

	total := sent.Load()
	if total == 0 || failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed", failures.Load(), total)
	}
	var demand int64
	for _, srv := range shards {
		demand += srv.Stats().DemandRequests
	}
	if demand != total {
		t.Errorf("DemandRequests over every shard = %d, want %d sent", demand, total)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var routed int64
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "pbppm_shard_requests_total{") {
			f := strings.Fields(line)
			n, err := strconv.ParseInt(f[len(f)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad exposition line %q", line)
			}
			routed += n
		}
	}
	if routed != total {
		t.Errorf("pbppm_shard_requests_total sums to %d, want %d sent", routed, total)
	}
	if got := len(c.ShardIDs()); got != 2 {
		t.Errorf("%d shards after %d join/leave cycles, want 2", got, cycles)
	}
}
