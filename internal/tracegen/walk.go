package tracegen

import (
	"fmt"
	"math/rand"
	"sort"
)

// Walker chooses which page a visitor requests next: the session walk
// (Regularities 1–3) that Generate's sessions take and that load
// generators drive against a live server. All randomness comes from
// the caller's *rand.Rand, so a seeded caller makes the same walk
// whatever the timing of its requests.
type Walker struct {
	site *Site
	p    Profile
}

// NewWalker returns a walker over a site built from p.
func NewWalker(site *Site, p Profile) (*Walker, error) {
	if site == nil || len(site.Pages) == 0 {
		return nil, fmt.Errorf("tracegen: walker needs a non-empty site")
	}
	return &Walker{site: site, p: p}, nil
}

// entry picks a page from the popular entry set. headShift slides the
// set down the popularity order — a flash crowd converging on pages
// that were not the head yesterday, which invalidates the model's
// learned session starts until maintenance catches up.
func (w *Walker) entry(rng *rand.Rand, headShift int) int {
	n := len(w.site.byWeight)
	top := w.p.EntryCount
	if top <= 0 || top > n {
		top = n
	}
	shift := headShift
	if max := n - top; shift > max {
		shift = max
	}
	if shift < 0 {
		shift = 0
	}
	return w.site.byWeight[shift+rng.Intn(top)]
}

// sampleByWeight draws a page from the intended popularity
// distribution.
func (w *Walker) sampleByWeight(rng *rand.Rand) int {
	cum := w.site.cumWeight
	x := rng.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum, x)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return w.site.byWeight[i]
}

// Start opens a session: a head page (biased toward the popular entry
// set, Regularity 1) and the session's continue probability, boosted
// by the head's popularity grade (Regularity 2).
func (w *Walker) Start(rng *rand.Rand, headShift int) (page int, pCont float64) {
	if rng.Float64() < w.p.PopularHeadBias {
		page = w.entry(rng, headShift)
	} else {
		page = w.sampleByWeight(rng)
	}
	pCont = w.p.ContinueBase + w.p.ContinueHeadBoost*float64(w.site.grade[page])
	if pCont > 0.93 {
		pCont = 0.93
	}
	return page, pCont
}

// Next chooses the click after cur: an off-structure popular jump (hub
// return or entry-set scatter), the primary link, or a uniform pick
// among the remaining links (Regularity 3 emerges because links point
// predominantly to deeper, less popular pages). ok is false when the
// page is a dead end.
func (w *Walker) Next(rng *rand.Rand, cur, headShift int) (next int, ok bool) {
	pg := &w.site.Pages[cur]
	switch {
	case rng.Float64() < w.p.JumpPopularProb:
		if rng.Float64() < w.p.HubJumpShare {
			return pg.Hub, true
		}
		return w.entry(rng, headShift), true
	case pg.Primary >= 0 && rng.Float64() < w.p.PrimaryProb:
		return pg.Primary, true
	case len(pg.Links) > 0:
		return pg.Links[rng.Intn(len(pg.Links))], true
	default:
		return 0, false
	}
}

// URL returns the page's request path.
func (w *Walker) URL(page int) string { return w.site.Pages[page].URL }
