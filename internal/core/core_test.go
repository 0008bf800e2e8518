package core

import (
	"math/rand"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/session"
	"pbppm/internal/sim"
)

// fig1Grades reproduces the grading of the paper's Figure 1 example:
// A and A2 grade 3, B and B2 grade 2, C and C2 grade 1.
var fig1Grades = popularity.FixedGrades{
	"A": 3, "A2": 3, "B": 2, "B2": 2, "C": 1, "C2": 1,
}

func TestFigure1Example(t *testing.T) {
	// The paper's example: access sequence A B C A2 B2 C2 with maximum
	// height 4 produces two branches (A B C A2 and A2 B2 C2) plus a
	// special link A -> duplicated A2.
	m := New(fig1Grades, Config{Heights: [4]int{1, 2, 3, 4}})
	m.TrainSequence([]string{"A", "B", "C", "A2", "B2", "C2"})

	tr := m.Tree()
	if tr.Match([]string{"A", "B", "C", "A2"}) == nil {
		t.Error("branch A>B>C>A2 missing")
	}
	if tr.Match([]string{"A2", "B2", "C2"}) == nil {
		t.Error("branch A2>B2>C2 missing")
	}
	if got := tr.Root.Fanout(); got != 2 {
		t.Errorf("roots = %d, want 2 (A and A2)", got)
	}
	if got := m.LinkCount(); got != 1 {
		t.Errorf("links = %d, want 1 (A -> dup A2)", got)
	}
	if m.links["A"]["A2"] != 1 {
		t.Errorf("link map = %v", m.links)
	}
	// 7 tree nodes + 1 duplicated node.
	if got := m.NodeCount(); got != 8 {
		t.Errorf("NodeCount = %d, want 8", got)
	}
}

func TestName(t *testing.T) {
	if got := New(fig1Grades, Config{}).Name(); got != "PB-PPM" {
		t.Errorf("Name = %q", got)
	}
}

func TestNewPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(nil grader) did not panic")
			}
		}()
		New(nil, Config{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with zero height did not panic")
			}
		}()
		New(fig1Grades, Config{Heights: [4]int{0, 3, 5, 7}})
	}()
}

func TestDefaultHeights(t *testing.T) {
	m := New(fig1Grades, Config{})
	for g, want := range []int{1, 3, 5, 7} {
		if got := m.maxHeight(popularity.Grade(g)); got != want {
			t.Errorf("maxHeight(%d) = %d, want %d", g, got, want)
		}
	}
	// Out-of-range grades are clamped.
	if m.maxHeight(-1) != 1 || m.maxHeight(9) != 7 {
		t.Error("grade clamping broken")
	}
}

func TestBranchHeightByGrade(t *testing.T) {
	grades := popularity.FixedGrades{"p": 3, "u": 0}
	m := New(grades, Config{})
	long := []string{"p", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"}
	m.TrainSequence(long)
	// Grade-3 head: height 7 — nodes p,x1..x6 stored, x7,x8 beyond.
	if m.Tree().Match([]string{"p", "x1", "x2", "x3", "x4", "x5", "x6"}) == nil {
		t.Error("grade-3 branch shorter than 7")
	}
	if m.Tree().Match([]string{"p", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}) != nil {
		t.Error("grade-3 branch exceeds height 7")
	}

	m2 := New(grades, Config{})
	m2.TrainSequence([]string{"u", "x1", "x2"})
	// Grade-0 head: height 1 — only the root is stored, and x1/x2 (grade
	// 0, no ascent) are not added anywhere.
	if got := m2.NodeCount(); got != 1 {
		t.Errorf("grade-0 head NodeCount = %d, want 1", got)
	}
}

func TestRootCreationOnGradeAscentOnly(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3, "b": 2, "c": 1, "pop": 3}
	m := New(grades, Config{})
	m.TrainSequence([]string{"a", "b", "c", "pop", "b", "c"})
	tr := m.Tree()
	if got := tr.Root.Fanout(); got != 2 {
		t.Fatalf("roots = %d, want 2 (a and pop)", got)
	}
	if tr.Child(tr.Root, "a") == nil || tr.Child(tr.Root, "pop") == nil {
		t.Error("expected roots a and pop missing")
	}
	// Descending URLs must not be roots.
	if tr.Child(tr.Root, "b") != nil || tr.Child(tr.Root, "c") != nil {
		t.Error("descending URL became a root")
	}
}

func TestEqualGradeDoesNotOpenRoot(t *testing.T) {
	grades := popularity.FixedGrades{"a": 2, "b": 2}
	m := New(grades, Config{})
	m.TrainSequence([]string{"a", "b"})
	if got := m.Tree().Root.Fanout(); got != 1 {
		t.Errorf("equal grade opened a root: fanout %d", got)
	}
}

func TestCountsAccumulateAcrossSessions(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3}
	m := New(grades, Config{})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"a", "b", "c"})
	}
	if n := m.Tree().Match([]string{"a"}); n.Count != 5 {
		t.Errorf("root count = %d, want 5", n.Count)
	}
	if n := m.Tree().Match([]string{"a", "b", "c"}); n.Count != 5 {
		t.Errorf("leaf count = %d, want 5", n.Count)
	}
}

func TestLinkRules(t *testing.T) {
	grades := popularity.FixedGrades{"head": 2, "mid": 1, "pop": 3, "hi": 3}
	m := New(grades, Config{})
	// pop is at depth 3 (not immediately after head) and grade 3: link.
	m.TrainSequence([]string{"head", "mid", "pop"})
	if m.links["head"]["pop"] != 1 {
		t.Errorf("links = %v, want head->pop", m.links)
	}
	// hi immediately follows head (depth 2): no link.
	m2 := New(grades, Config{})
	m2.TrainSequence([]string{"head", "hi"})
	if m2.LinkCount() != 0 {
		t.Errorf("immediate successor linked: %v", m2.links)
	}
	// Self-links are suppressed.
	m3 := New(grades, Config{})
	m3.TrainSequence([]string{"head", "mid", "head"})
	if _, ok := m3.links["head"]["head"]; ok {
		t.Error("self link created")
	}
}

func TestLinkGradeCondition(t *testing.T) {
	// Grade must exceed the heading grade OR be the maximum.
	grades := popularity.FixedGrades{"h3": 3, "g2": 2, "g1": 1, "g3": 3}
	m := New(grades, Config{})
	// Head grade 3; mid-branch grade-2 URL: 2 > 3 false, 2 == 3 false -> no link.
	m.TrainSequence([]string{"h3", "g1", "g2"})
	if m.LinkCount() != 0 {
		t.Errorf("links = %v, want none", m.links)
	}
	// Head grade 3; mid-branch grade-3 URL: max grade -> link.
	m2 := New(grades, Config{})
	m2.TrainSequence([]string{"h3", "g1", "g3"})
	if m2.links["h3"]["g3"] != 1 {
		t.Errorf("links = %v, want h3->g3", m2.links)
	}
}

func TestDisableLinks(t *testing.T) {
	m := New(fig1Grades, Config{DisableLinks: true, Heights: [4]int{1, 2, 3, 4}})
	m.TrainSequence([]string{"A", "B", "C", "A2", "B2", "C2"})
	if m.LinkCount() != 0 {
		t.Error("DisableLinks ignored")
	}
	if m.NodeCount() != 7 {
		t.Errorf("NodeCount = %d, want 7 without the dup node", m.NodeCount())
	}
}

func TestPredictLongestMatch(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3}
	m := New(grades, Config{})
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"a", "b", "c"})
	}
	ps := m.Predict([]string{"a", "b"})
	if len(ps) != 1 || ps[0].URL != "c" || ps[0].Order != 2 || ps[0].Probability != 1 {
		t.Fatalf("Predict(a,b) = %+v", ps)
	}
	if got := m.Predict([]string{"zzz"}); got != nil {
		t.Errorf("Predict(zzz) = %+v", got)
	}
	if got := m.Predict(nil); got != nil {
		t.Errorf("Predict(nil) = %+v", got)
	}
}

func TestPredictIncludesLinkedNodes(t *testing.T) {
	grades := popularity.FixedGrades{"home": 3, "page": 1, "hot": 3}
	m := New(grades, Config{})
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"home", "page", "hot"})
	}
	// At the root "home", predictions must include both the child
	// "page" (longest match) and the linked duplicate "hot".
	ps := m.Predict([]string{"home"})
	urls := map[string]float64{}
	for _, p := range ps {
		urls[p.URL] = p.Probability
	}
	if urls["page"] != 1 {
		t.Errorf("missing child prediction: %+v", ps)
	}
	if urls["hot"] != 1 {
		t.Errorf("missing linked prediction: %+v", ps)
	}
	// With links disabled the duplicate vanishes.
	m2 := New(grades, Config{DisableLinks: true})
	for i := 0; i < 4; i++ {
		m2.TrainSequence([]string{"home", "page", "hot"})
	}
	for _, p := range m2.Predict([]string{"home"}) {
		if p.URL == "hot" && p.Order == 1 {
			// hot can still be predicted transitively from page, but not
			// at order 1 from home's links.
			t.Errorf("linked prediction present despite DisableLinks: %+v", p)
		}
	}
}

func TestPredictDeduplicatesKeepingMaxProbability(t *testing.T) {
	grades := popularity.FixedGrades{"home": 3, "page": 1, "hot": 3}
	m := New(grades, Config{})
	// hot is both home's linked node and (via another session shape)
	// reachable as a direct child of home.
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"home", "page", "hot"}) // link home->hot
	}
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"page", "hot"}) // hot root branches
	}
	ps := m.Predict([]string{"home"})
	seen := map[string]int{}
	for _, p := range ps {
		seen[p.URL]++
	}
	for url, n := range seen {
		if n > 1 {
			t.Errorf("URL %s predicted %d times", url, n)
		}
	}
}

func TestPredictThresholdAppliesToLinks(t *testing.T) {
	grades := popularity.FixedGrades{"home": 3, "p1": 1, "p2": 1, "hot": 3}
	m := New(grades, Config{Threshold: 0.5})
	// home visited 4 times; hot linked only once => P = 0.25 < 0.5.
	m.TrainSequence([]string{"home", "p1", "hot"})
	m.TrainSequence([]string{"home", "p1"})
	m.TrainSequence([]string{"home", "p1"})
	m.TrainSequence([]string{"home", "p1"})
	for _, p := range m.Predict([]string{"home"}) {
		if p.URL == "hot" {
			t.Errorf("below-threshold link predicted: %+v", p)
		}
	}
}

func TestOptimizeRelProbCutoff(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3}
	m := New(grades, Config{RelProbCutoff: 0.1})
	for i := 0; i < 20; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	m.TrainSequence([]string{"a", "b", "rare"}) // P(rare|b) = 1/21 < 10%
	before := m.NodeCount()
	removed := m.Optimize()
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	if m.NodeCount() != before-1 {
		t.Errorf("NodeCount = %d, want %d", m.NodeCount(), before-1)
	}
	if m.Tree().Match([]string{"a", "b", "rare"}) != nil {
		t.Error("rare node survived optimization")
	}
	if m.Tree().Match([]string{"a", "b"}) == nil {
		t.Error("hot node removed")
	}
}

func TestOptimizeDoesNotCutRootChildren(t *testing.T) {
	// Relative-probability optimization applies to non-root nodes; rare
	// roots survive it (only DropSingletons removes them).
	grades := popularity.FixedGrades{"a": 3, "z": 3}
	m := New(grades, Config{RelProbCutoff: 0.5})
	for i := 0; i < 20; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	m.TrainSequence([]string{"z"})
	m.Optimize()
	if m.Tree().Match([]string{"z"}) == nil {
		t.Error("rare root removed by relative-probability cut")
	}
}

func TestOptimizeDropSingletons(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3, "z": 3}
	m := New(grades, Config{DropSingletons: true})
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	m.TrainSequence([]string{"z", "once"})
	removed := m.Optimize()
	// z root (count 1) and its subtree vanish.
	if m.Tree().Match([]string{"z"}) != nil {
		t.Error("singleton root survived")
	}
	if m.Tree().Match([]string{"a", "b"}) == nil {
		t.Error("repeated branch removed")
	}
	if removed < 1 {
		t.Errorf("removed = %d", removed)
	}
}

func TestOptimizeCleansOrphanedLinks(t *testing.T) {
	grades := popularity.FixedGrades{"h": 2, "mid": 1, "pop": 3}
	m := New(grades, Config{DropSingletons: true, RelProbCutoff: 0.01})
	m.TrainSequence([]string{"h", "mid", "pop"}) // single session: all counts 1
	if m.LinkCount() != 1 {
		t.Fatalf("precondition: links = %d", m.LinkCount())
	}
	m.Optimize()
	if m.LinkCount() != 0 {
		t.Errorf("links after optimize = %d, want 0", m.LinkCount())
	}
	if m.NodeCount() != 0 {
		t.Errorf("NodeCount = %d, want 0", m.NodeCount())
	}
	// A second Optimize on the emptied model must be a no-op.
	if again := m.Optimize(); again != 0 {
		t.Errorf("second Optimize removed %d", again)
	}
}

func TestOptimizeLinkRelProb(t *testing.T) {
	grades := popularity.FixedGrades{"home": 3, "p": 1, "hot": 3}
	m := New(grades, Config{RelProbCutoff: 0.3})
	m.TrainSequence([]string{"home", "p", "hot"}) // link count 1
	for i := 0; i < 9; i++ {
		m.TrainSequence([]string{"home", "p"}) // home count 10
	}
	m.Optimize() // link relative probability 0.1 < 0.3
	if m.LinkCount() != 0 {
		t.Errorf("weak link survived: %v", m.links)
	}
}

func TestStatsRootsByGrade(t *testing.T) {
	grades := popularity.FixedGrades{"p3": 3, "p2": 2, "u": 0}
	m := New(grades, Config{})
	m.TrainSequence([]string{"p3", "x"})
	m.TrainSequence([]string{"u", "p2"}) // ascent opens p2 root
	st := m.Stats()
	if st.Roots != 3 {
		t.Fatalf("roots = %d, want 3", st.Roots)
	}
	if st.RootsByGrade[3] != 1 || st.RootsByGrade[2] != 1 || st.RootsByGrade[0] != 1 {
		t.Errorf("RootsByGrade = %v", st.RootsByGrade)
	}
	if st.Nodes != m.NodeCount() || st.Links != m.LinkCount() {
		t.Error("stats disagree with direct counts")
	}
}

// utilization replays one session of clicks through the simulator,
// every click reaching the server, and returns the path-utilization
// rate (Figure 2, right) its predictions reached.
func utilization(m markov.Predictor, clicks ...string) float64 {
	s := session.Session{Client: "c"}
	for i, u := range clicks {
		s.Views = append(s.Views, session.PageView{URL: u, Time: time.Unix(int64(i), 0)})
	}
	return sim.Run([]session.Session{s}, sim.Options{Predictor: m, PredictOnHitToo: true}).Utilization
}

func TestUtilization(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3, "q": 3}
	m := New(grades, Config{})
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"a", "b"})
		m.TrainSequence([]string{"q", "r"})
	}
	got := utilization(m, "a")
	if got != 0.5 {
		t.Errorf("utilization = %v, want 0.5 (a>b used, q>r not)", got)
	}
	// Each replay counts its own predictions only.
	if utilization(m, "/unseen") != 0 {
		t.Error("a replay inherited another replay's marks")
	}
}

// Property: count conservation — every node's count is at least the sum
// of its children's counts, because the single-open-branch construction
// moves the cursor to a node exactly once per increment.
func TestCountConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	urls := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	grades := popularity.FixedGrades{}
	for i, u := range urls {
		grades[u] = popularity.Grade(i % 4)
	}
	m := New(grades, Config{})
	for i := 0; i < 1000; i++ {
		n := rng.Intn(9) + 1
		s := make([]string, n)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		m.TrainSequence(s)
	}
	var check func(n *markov.Node) bool
	check = func(n *markov.Node) bool {
		var sum int64
		ok := true
		n.EachChild(func(c *markov.Node) bool {
			sum += c.Count
			if !check(c) {
				ok = false
				return false
			}
			return true
		})
		return ok && n.Count >= sum
	}
	m.Tree().Root.EachChild(func(c *markov.Node) bool {
		if !check(c) {
			t.Fatal("count conservation violated")
		}
		return true
	})
}

// Property: branch depth never exceeds the maximum configured height.
func TestHeightInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	urls := []string{"a", "b", "c", "d", "e", "f"}
	grades := popularity.FixedGrades{}
	for i, u := range urls {
		grades[u] = popularity.Grade(i % 4)
	}
	m := New(grades, Config{})
	for i := 0; i < 500; i++ {
		n := rng.Intn(12) + 1
		s := make([]string, n)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		m.TrainSequence(s)
	}
	maxAllowed := 0
	for _, h := range DefaultHeights {
		if h > maxAllowed {
			maxAllowed = h
		}
	}
	deepest := 0
	m.Tree().Walk(func(path []string, n *markov.Node) {
		if len(path) > deepest {
			deepest = len(path)
		}
	})
	if deepest > maxAllowed {
		t.Errorf("deepest branch %d exceeds maximum height %d", deepest, maxAllowed)
	}
	// Stronger: each branch respects its own root's grade height.
	tr := m.Tree()
	tr.EachChild(tr.Root, func(rootURL string, root *markov.Node) bool {
		limit := DefaultHeights[grades.GradeOf(rootURL)]
		d := depthOf(root)
		if d > limit {
			t.Errorf("branch %s depth %d exceeds grade height %d", rootURL, d, limit)
		}
		return true
	})
}

func depthOf(n *markov.Node) int {
	max := 0
	n.EachChild(func(c *markov.Node) bool {
		if d := depthOf(c); d > max {
			max = d
		}
		return true
	})
	return max + 1
}

func TestNoThresholdPredictsEverything(t *testing.T) {
	grades := popularity.FixedGrades{"a": 3}
	m := New(grades, Config{Threshold: ppm.NoThreshold})
	for i := 0; i < 9; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	m.TrainSequence([]string{"a", "c"}) // P(c|a)=0.1, below the default 0.25
	ps := m.Predict([]string{"a"})
	if len(ps) != 2 {
		t.Errorf("Predict with NoThreshold = %+v, want both b and c", ps)
	}
}

// TestFrozenStreamingMatchesPredictInto is the streaming path's
// property test on PB-PPM: over models whose branches run deeper than
// the 16-URL serving tail (and the default 7/5/3/1 heights), with
// rule-3 links on, stepping a context URL by URL and predicting from
// the reached state equals PredictInto on the context's last 16 URLs,
// unseen URLs included.
func TestFrozenStreamingMatchesPredictInto(t *testing.T) {
	const tail = 16
	rng := rand.New(rand.NewSource(3))
	urls := make([]string, 10)
	grades := popularity.FixedGrades{}
	// Mostly grade 3: equal grades extend the open branch instead of
	// opening a root (rule 4), so branches grow to their height.
	for i := range urls {
		urls[i] = string(rune('a' + i))
		grades[urls[i]] = popularity.Grade(3 - i/7)
	}
	for _, heights := range [][4]int{{}, {2, 9, 17, 24}, {30, 30, 30, 30}} {
		m := New(grades, Config{Heights: heights, Threshold: 0.05})
		sessions := make([][]string, 300)
		for i := range sessions {
			s := make([]string, rng.Intn(35)+1)
			for j := range s {
				s[j] = urls[rng.Intn(rng.Intn(len(urls))+1)]
			}
			m.TrainSequence(s)
			sessions[i] = s
		}
		f := m.Freeze().(*markov.FrozenTree)
		if heights[3] > tail {
			if d := f.Arena().Stats().MaxDepth; d <= tail {
				t.Fatalf("heights %v: arena depth %d, want > %d", heights, d, tail)
			}
		}
		for round := 0; round < 300; round++ {
			ctx := make([]string, rng.Intn(45)+1)
			for j := range ctx {
				if rng.Intn(15) == 0 {
					ctx[j] = "unseen"
				} else {
					ctx[j] = urls[rng.Intn(len(urls))]
				}
			}
			// Every other context ends in a training session, so its
			// matches run as deep as the branches.
			if round%2 == 0 {
				ctx = append(ctx[:rng.Intn(len(ctx))], sessions[rng.Intn(len(sessions))]...)
			}
			node := uint32(0)
			for _, u := range ctx {
				node = f.Step(node, u, tail)
			}
			got := f.PredictFrom(node, ctx[len(ctx)-1], tail, nil)
			last := ctx
			if len(last) > tail {
				last = last[len(last)-tail:]
			}
			want := f.PredictInto(last, nil)
			if len(got) != len(want) {
				t.Fatalf("heights %v, context %q: streamed %+v, PredictInto %+v", heights, ctx, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("heights %v, context %q: streamed %+v, PredictInto %+v", heights, ctx, got, want)
				}
			}
		}
	}
}
