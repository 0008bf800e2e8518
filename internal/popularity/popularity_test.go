package popularity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestObserveAndCounts(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/a", 10)
	rk.Observe("/b", 3)
	rk.Observe("/a", 5)
	if got := rk.Count("/a"); got != 15 {
		t.Errorf("Count(/a) = %d, want 15", got)
	}
	if got := rk.Count("/missing"); got != 0 {
		t.Errorf("Count(missing) = %d, want 0", got)
	}
	if got := rk.MaxCount(); got != 15 {
		t.Errorf("MaxCount = %d, want 15", got)
	}
	if got := rk.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestObserveNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Observe(-1) did not panic")
		}
	}()
	NewRanking().Observe("/a", -1)
}

func TestRelative(t *testing.T) {
	rk := NewRanking()
	if got := rk.Relative("/a"); got != 0 {
		t.Errorf("empty ranking Relative = %v, want 0", got)
	}
	rk.Observe("/top", 1000)
	rk.Observe("/mid", 100)
	rk.Observe("/low", 1)
	cases := map[string]float64{"/top": 1.0, "/mid": 0.1, "/low": 0.001, "/none": 0}
	for u, want := range cases {
		if got := rk.Relative(u); math.Abs(got-want) > 1e-12 {
			t.Errorf("Relative(%s) = %v, want %v", u, got, want)
		}
	}
}

func TestGradeBoundaries(t *testing.T) {
	rk := NewRanking()
	cases := []struct {
		rp   float64
		want Grade
	}{
		{1.0, 3}, {0.5, 3}, {0.1, 3},
		{0.0999999, 2}, {0.01, 2},
		{0.00999, 1}, {0.001, 1},
		{0.000999, 0}, {0.0001, 0}, {0, 0}, {-0.5, 0},
		{1.5, 3}, // clamped above 1
	}
	for _, c := range cases {
		if got := rk.GradeOfRP(c.rp); got != c.want {
			t.Errorf("GradeOfRP(%v) = %v, want %v", c.rp, got, c.want)
		}
	}
}

func TestGradeOfByCounts(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/top", 10000)
	rk.Observe("/g3", 1500)
	rk.Observe("/g2", 150)
	rk.Observe("/g1", 15)
	rk.Observe("/g0", 1)
	want := map[string]Grade{"/top": 3, "/g3": 3, "/g2": 2, "/g1": 1, "/g0": 0, "/none": 0}
	for u, g := range want {
		if got := rk.GradeOf(u); got != g {
			t.Errorf("GradeOf(%s) = %v, want %v", u, got, g)
		}
	}
}

func TestZeroValueRankingUsesPaperDefaults(t *testing.T) {
	var rk Ranking
	rk.Observe("/top", 1000)
	rk.Observe("/mid", 100)
	if got := rk.GradeOf("/top"); got != 3 {
		t.Errorf("zero-value GradeOf(top) = %v, want 3", got)
	}
	if got := rk.GradeOf("/mid"); got != 3 {
		t.Errorf("zero-value GradeOf(mid) = %v, want 3 (RP=0.1)", got)
	}
}

func TestGradeHistogram(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/a", 1000)
	rk.Observe("/b", 500)
	rk.Observe("/c", 50)
	rk.Observe("/d", 5)
	rk.Observe("/e", 1)
	hist := rk.GradeHistogram()
	// RP: a=1 (g3), b=0.5 (g3), c=0.05 (g2), d=0.005 (g1), e=0.001 (g1).
	want := []int{0, 2, 1, 2}
	for g, n := range want {
		if hist[g] != n {
			t.Errorf("hist[%d] = %d, want %d (full %v)", g, hist[g], n, hist)
		}
	}
}

func TestTop(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/b", 10)
	rk.Observe("/a", 10)
	rk.Observe("/c", 30)
	rk.Observe("/d", 1)
	got := rk.Top(3)
	want := []string{"/c", "/a", "/b"}
	if len(got) != 3 {
		t.Fatalf("Top(3) returned %d items", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Top[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if got := rk.Top(100); len(got) != 4 {
		t.Errorf("Top(100) returned %d items, want 4", len(got))
	}
}

func TestGradesMap(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/a", 10000)
	rk.Observe("/b", 1)
	m := rk.Grades()
	if len(m) != 2 || m["/a"] != 3 || m["/b"] != 0 {
		t.Errorf("Grades = %v", m)
	}
}

func TestFixedGrades(t *testing.T) {
	var g Grader = FixedGrades{"/a": 3, "/b": 1}
	if g.GradeOf("/a") != 3 || g.GradeOf("/b") != 1 || g.GradeOf("/zzz") != 0 {
		t.Error("FixedGrades lookup mismatch")
	}
}

// Property: grades are monotone in access count — a URL with at least as
// many accesses never has a lower grade.
func TestGradeMonotoneProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		rk := NewRanking()
		for i, c := range counts {
			rk.Observe(string(rune('a'+i%26))+string(rune('0'+i%10)), int64(c)+1)
		}
		urls := rk.Top(rk.Len())
		for i := 1; i < len(urls); i++ {
			hi, lo := urls[i-1], urls[i]
			if rk.GradeOf(hi) < rk.GradeOf(lo) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: GradeOfRP is monotone non-decreasing in rp and always in range.
func TestGradeOfRPProperty(t *testing.T) {
	rk := NewRanking()
	rng := rand.New(rand.NewSource(1))
	prevRP, prevG := 0.0, Grade(0)
	rps := make([]float64, 500)
	for i := range rps {
		rps[i] = rng.Float64()
	}
	rps = append(rps, 0, 1, 0.1, 0.01, 0.001)
	sortFloats(rps)
	for _, rp := range rps {
		g := rk.GradeOfRP(rp)
		if g < 0 || g > MaxGrade {
			t.Fatalf("GradeOfRP(%v) = %v out of range", rp, g)
		}
		if rp >= prevRP && g < prevG {
			t.Fatalf("grade not monotone: rp %v -> %v but %v -> %v", prevRP, prevG, rp, g)
		}
		prevRP, prevG = rp, g
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
