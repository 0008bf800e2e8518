package tracegen

import (
	"testing"

	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/trace"
)

// smallNASA shrinks the NASA profile so tests stay fast while keeping
// the statistical structure.
func smallNASA() Profile {
	p := NASA()
	p.Days = 3
	p.SessionsPerDay = 800
	p.Pages = 500
	p.EntryCount = 6
	p.Browsers = 500
	return p
}

func smallUCB() Profile {
	p := UCBCS()
	p.Days = 3
	p.SessionsPerDay = 800
	p.Pages = 800
	p.Browsers = 700
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
	// A different seed must give a different trace.
	p := smallNASA()
	p.Seed++
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Records) == len(c.Records)
	if same {
		diff := false
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if got := tr.Days(); got != 3 && got != 4 {
		// Sessions started late in day 2 may spill into day 3.
		t.Errorf("Days = %d, want 3 or 4", got)
	}
	if len(tr.Records) < 1000 {
		t.Errorf("only %d records generated", len(tr.Records))
	}
}

func TestProfileValidation(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Days = 0 },
		func(p *Profile) { p.Pages = 1 },
		func(p *Profile) { p.SessionsPerDay = 0 },
		func(p *Profile) { p.Branching = 0 },
		func(p *Profile) { p.Browsers = 0 },
		func(p *Profile) { p.Proxies = 0 }, // with ProxyShare > 0
		func(p *Profile) { p.MaxSessionLen = 0 },
		func(p *Profile) { p.ZipfS = 0 },
	}
	for i, mut := range mutations {
		p := smallNASA()
		mut(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := BuildSite(p); err == nil {
			t.Errorf("mutation %d accepted by BuildSite", i)
		}
	}
}

func TestSiteStructure(t *testing.T) {
	site, err := BuildSite(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	if len(site.Pages) != smallNASA().Pages {
		t.Fatalf("pages = %d, want %d", len(site.Pages), smallNASA().Pages)
	}
	for i, pg := range site.Pages {
		if trace.Classify(pg.URL) != trace.KindHTML {
			t.Errorf("page %d URL %q not HTML", i, pg.URL)
		}
		if pg.Size <= 0 {
			t.Errorf("page %d size %d", i, pg.Size)
		}
		for _, img := range pg.Images {
			if trace.Classify(img.URL) != trace.KindImage {
				t.Errorf("image URL %q not image kind", img.URL)
			}
		}
		for _, l := range pg.Links {
			if l == i || l < 0 || l >= len(site.Pages) {
				t.Errorf("page %d has bad link %d", i, l)
			}
		}
		if pg.Primary == i {
			t.Errorf("page %d primary links to itself", i)
		}
	}
	// Home page must be the most popular under identity ranks.
	if site.byWeight[0] != 0 {
		t.Errorf("most popular page = %d, want 0", site.byWeight[0])
	}
	if g := site.grade[site.byWeight[0]]; g != 3 {
		t.Errorf("top page grade = %d, want 3", g)
	}
	if g := site.grade[site.byWeight[len(site.Pages)-1]]; g != 0 {
		t.Errorf("bottom page grade = %d, want 0", g)
	}
}

// realizedGrades computes actual popularity grades over HTML page views.
func realizedGrades(t *testing.T, tr *trace.Trace) (*popularity.Ranking, []session.Session) {
	t.Helper()
	sessions := session.Sessionize(tr, session.Config{})
	rk := popularity.NewRanking()
	for _, s := range sessions {
		for _, v := range s.Views {
			rk.Observe(v.URL, 1)
		}
	}
	return rk, sessions
}

func TestRegularity1PopularHeads(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	rk, sessions := realizedGrades(t, tr)
	if len(sessions) < 500 {
		t.Fatalf("only %d sessions", len(sessions))
	}
	popularHeads := 0
	for _, s := range sessions {
		if rk.GradeOf(s.URLs()[0]) >= 2 {
			popularHeads++
		}
	}
	frac := float64(popularHeads) / float64(len(sessions))
	if frac < 0.6 {
		t.Errorf("popular-headed sessions = %.2f, want >= 0.6 (Regularity 1)", frac)
	}
	// ... while the majority of URLs are NOT popular.
	hist := rk.GradeHistogram()
	unpopular := hist[0] + hist[1]
	total := 0
	for _, n := range hist {
		total += n
	}
	if float64(unpopular)/float64(total) < 0.5 {
		t.Errorf("unpopular URL fraction = %d/%d, want majority", unpopular, total)
	}
}

func TestRegularity2LongSessionsPopularHeads(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	rk, sessions := realizedGrades(t, tr)
	long, longPopular := 0, 0
	for _, s := range sessions {
		if s.Len() >= 6 {
			long++
			if rk.GradeOf(s.URLs()[0]) >= 2 {
				longPopular++
			}
		}
	}
	if long < 20 {
		t.Fatalf("only %d long sessions", long)
	}
	if frac := float64(longPopular) / float64(long); frac < 0.6 {
		t.Errorf("long sessions with popular heads = %.2f, want >= 0.6 (Regularity 2)", frac)
	}
}

func TestRegularity3DescendingPopularity(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	rk, sessions := realizedGrades(t, tr)
	descents, ascents := 0, 0
	for _, s := range sessions {
		urls := s.URLs()
		for i := 1; i < len(urls); i++ {
			a, b := rk.GradeOf(urls[i-1]), rk.GradeOf(urls[i])
			switch {
			case b < a:
				descents++
			case b > a:
				ascents++
			}
		}
	}
	if descents <= ascents {
		t.Errorf("descents %d <= ascents %d, want descending drift (Regularity 3)", descents, ascents)
	}
}

func TestSessionLengthsMostlyShort(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	_, sessions := realizedGrades(t, tr)
	st := session.Summarize(sessions)
	if st.LengthAtMost9 < 0.85 {
		t.Errorf("sessions with <= 9 clicks = %.2f, want >= 0.85 (paper: >95%%)", st.LengthAtMost9)
	}
	if st.MeanLength < 1.5 {
		t.Errorf("mean session length = %.2f, suspiciously short", st.MeanLength)
	}
}

// headConcentration returns the fraction of sessions whose head URL is
// among the top 5% most-accessed URLs of the trace.
func headConcentration(t *testing.T, tr *trace.Trace) float64 {
	t.Helper()
	rk, sessions := realizedGrades(t, tr)
	top := map[string]bool{}
	for _, u := range rk.Top(rk.Len()/20 + 1) {
		top[u] = true
	}
	inTop := 0
	for _, s := range sessions {
		if top[s.URLs()[0]] {
			inTop++
		}
	}
	return float64(inTop) / float64(len(sessions))
}

func TestUCBHeadsSpreadVersusNASA(t *testing.T) {
	// The paper: "popularity grades of the starting URLs are evenly
	// distributed in the UCB-CS trace", whereas NASA sessions start
	// overwhelmingly at popular URLs. At test scale absolute grades
	// compress, so compare head concentration instead.
	nasaTr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	ucbTr, err := Generate(smallUCB())
	if err != nil {
		t.Fatal(err)
	}
	nasa := headConcentration(t, nasaTr)
	ucb := headConcentration(t, ucbTr)
	if nasa < 0.6 {
		t.Errorf("NASA head concentration = %.2f, want >= 0.6", nasa)
	}
	if ucb > nasa-0.15 {
		t.Errorf("UCB head concentration %.2f not clearly below NASA %.2f", ucb, nasa)
	}
	// Heads must not all collapse into the popular set: a visible share
	// of UCB sessions starts outside the top 5%.
	if 1-ucb < 0.2 {
		t.Errorf("UCB off-popular heads = %.2f, want >= 0.2", 1-ucb)
	}
}

func TestEmbeddedImagesFoldable(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	_, sessions := realizedGrades(t, tr)
	embedded := 0
	for _, s := range sessions {
		for _, v := range s.Views {
			embedded += len(v.Embedded)
			if trace.Classify(v.URL) == trace.KindImage {
				// Standalone image views should be rare (only proxy
				// interleaving can strand them); tolerate, count below.
				continue
			}
		}
	}
	if embedded == 0 {
		t.Error("no images were folded into pages")
	}
}

func TestProxyClientsPresent(t *testing.T) {
	tr, err := Generate(smallNASA())
	if err != nil {
		t.Fatal(err)
	}
	classes := session.ClassifyClients(tr, 0)
	proxies := 0
	for c, cl := range classes {
		if cl == session.Proxy {
			proxies++
			if len(c) < 5 || c[:5] != "proxy" {
				t.Logf("note: browser address %q classified as proxy (volume heuristic)", c)
			}
		}
	}
	if proxies == 0 {
		t.Error("no clients classified as proxies")
	}
}

func TestGenerateOnSharedSite(t *testing.T) {
	p := smallNASA()
	site, err := BuildSite(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GenerateOn(site, p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Seed += 99
	b, err := GenerateOn(site, p2)
	if err != nil {
		t.Fatal(err)
	}
	// Same site: URL universes overlap heavily even with different seeds.
	urlsA := map[string]bool{}
	for _, r := range a.Records {
		urlsA[r.URL] = true
	}
	urlsB := map[string]bool{}
	for _, r := range b.Records {
		urlsB[r.URL] = true
	}
	common := 0
	for u := range urlsB {
		if urlsA[u] {
			common++
		}
	}
	if common < len(urlsA)/2 {
		t.Errorf("only %d common URLs across periods on one site", common)
	}
}

func TestDiurnalShape(t *testing.T) {
	p := smallNASA()
	p.Diurnal = true
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Count human records by hour of day; afternoon must clearly beat
	// the small hours.
	var byHour [24]int
	for _, r := range tr.Records {
		if len(r.Client) >= 7 && r.Client[:7] == "crawler" {
			continue
		}
		byHour[r.Time.Hour()]++
	}
	afternoon := byHour[14] + byHour[15] + byHour[16]
	night := byHour[2] + byHour[3] + byHour[4]
	if afternoon < 2*night {
		t.Errorf("afternoon %d not clearly above night %d: %v", afternoon, night, byHour)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNASAFullMonthGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("full month in -short mode")
	}
	p := NASAFullMonth()
	p.SessionsPerDay = 200 // volume down, span intact
	p.Pages = 200
	p.Browsers = 150
	p.CrawlerPagesPerDay = 60
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Days(); got < 31 {
		t.Errorf("Days = %d, want >= 31", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerateOn generates the 7-day NASA history prefetchd and
// perfbench build at boot, over a site built once.
func BenchmarkGenerateOn(b *testing.B) {
	p := NASA()
	p.Days = 7
	site, err := BuildSite(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateOn(site, p); err != nil {
			b.Fatal(err)
		}
	}
}
