// Package popularity implements the relative-popularity metric and the
// log10 grade scale from §3.1 of the paper.
//
// For a URL u observed in a trace window,
//
//	RP(u) = accesses(u) / accesses(most popular URL)
//
// and grades partition RP on a log10 scale: grade 3 for RP in [0.1, 1],
// grade 2 for [0.01, 0.1), grade 1 for [0.001, 0.01), grade 0 below.
package popularity

import (
	"math"
	"slices"
	"sort"
)

// Grade is the popularity grade of a URL, 0 (least popular) through 3.
type Grade int

// MaxGrade is the highest popularity grade.
const MaxGrade Grade = 3

// Ranking holds access counts and derived popularity for a set of URLs.
// The zero value is an empty ranking ready for Observe calls.
type Ranking struct {
	counts map[string]int64
	max    int64
}

// NewRanking returns an empty Ranking.
func NewRanking() *Ranking { return &Ranking{} }

// Observe records n accesses to url. Negative n panics: access counts
// only grow.
func (rk *Ranking) Observe(url string, n int64) {
	if n < 0 {
		panic("popularity: negative access count")
	}
	if rk.counts == nil {
		rk.counts = make(map[string]int64)
	}
	rk.counts[url] += n
	if rk.counts[url] > rk.max {
		rk.max = rk.counts[url]
	}
}

// Count returns the number of recorded accesses to url.
func (rk *Ranking) Count(url string) int64 { return rk.counts[url] }

// MaxCount returns the access count of the most popular URL, or zero
// for an empty ranking.
func (rk *Ranking) MaxCount() int64 { return rk.max }

// Len returns the number of distinct URLs observed.
func (rk *Ranking) Len() int { return len(rk.counts) }

// URLs returns every observed URL in byte order.
func (rk *Ranking) URLs() []string {
	urls := make([]string, 0, len(rk.counts))
	for u := range rk.counts {
		urls = append(urls, u)
	}
	slices.Sort(urls)
	return urls
}

// Relative returns RP(url) in [0, 1]. URLs never observed have RP 0.
// An empty ranking yields 0 for every URL.
func (rk *Ranking) Relative(url string) float64 {
	if rk.max == 0 {
		return 0
	}
	return float64(rk.counts[url]) / float64(rk.max)
}

// GradeOf maps a URL to its popularity grade on the log10 scale of the
// package comment: grade 3 for RP in [0.1, 1] down to grade 0 below
// 0.001, unobserved URLs included.
func (rk *Ranking) GradeOf(url string) Grade {
	return rk.GradeOfRP(rk.Relative(url))
}

// GradeOfRP maps a relative popularity value to a grade.
func (rk *Ranking) GradeOfRP(rp float64) Grade {
	if rp <= 0 {
		return 0
	}
	if rp > 1 {
		rp = 1
	}
	// g = MaxGrade + floor(log10(rp)) + 1 for rp in (0,1], clamped.
	lg := math.Log(rp) / math.Log(10)
	g := int(MaxGrade) + int(math.Floor(lg)) + 1
	if g < 0 {
		g = 0
	}
	if g > int(MaxGrade) {
		g = int(MaxGrade)
	}
	return Grade(g)
}

// Grades returns the grade of every observed URL.
func (rk *Ranking) Grades() map[string]Grade {
	out := make(map[string]Grade, len(rk.counts))
	for u := range rk.counts {
		out[u] = rk.GradeOf(u)
	}
	return out
}

// GradeHistogram returns how many observed URLs fall in each grade,
// indexed by grade.
func (rk *Ranking) GradeHistogram() []int {
	hist := make([]int, MaxGrade+1)
	for u := range rk.counts {
		hist[rk.GradeOf(u)]++
	}
	return hist
}

// Top returns the n most popular URLs in descending access-count order,
// ties broken lexicographically for determinism. If n exceeds the
// number of observed URLs, all URLs are returned.
func (rk *Ranking) Top(n int) []string {
	urls := make([]string, 0, len(rk.counts))
	for u := range rk.counts {
		urls = append(urls, u)
	}
	sort.Slice(urls, func(i, j int) bool {
		ci, cj := rk.counts[urls[i]], rk.counts[urls[j]]
		if ci != cj {
			return ci > cj
		}
		return urls[i] < urls[j]
	})
	if n < len(urls) {
		urls = urls[:n]
	}
	return urls
}

// Grader is the minimal read-only view the prediction models need:
// popularity grades for URLs. *Ranking implements it, as do fixed
// test stubs.
type Grader interface {
	GradeOf(url string) Grade
}

// FixedGrades is a Grader backed by a literal map; URLs absent from the
// map have grade 0. It is convenient in tests and examples.
type FixedGrades map[string]Grade

// GradeOf returns the grade recorded for url, or 0.
func (f FixedGrades) GradeOf(url string) Grade { return f[url] }
