package main

import (
	"math/rand"

	"pbppm/internal/loadgen"
)

// Request plans. Every plan is drawn from one seeded *rand.Rand before
// or independently of any response, so a seed fixes the page views the
// benchmark sends, in order.

// walk appends page views to urls until it holds n: navigator sessions
// back to back, each opened at a popular head and continued along the
// site's links. With no idle gap between them the server sees one long
// session per client, so its context reaches the predict tail cap.
func walk(nav *loadgen.Navigator, rng *rand.Rand, n int) []string {
	urls := make([]string, 0, n)
	cur, pCont := nav.Start(rng, 0)
	urls = append(urls, nav.URL(cur))
	for len(urls) < n {
		if rng.Float64() < pCont {
			if next, ok := nav.Next(rng, cur, 0); ok {
				cur = next
				urls = append(urls, nav.URL(cur))
				continue
			}
		}
		cur, pCont = nav.Start(rng, 0)
		urls = append(urls, nav.URL(cur))
	}
	return urls
}

// browsePlan gives each of clients clients a walk of views page views.
func browsePlan(nav *loadgen.Navigator, seed int64, clients, views int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][]string, clients)
	for i := range plan {
		plan[i] = walk(nav, rng, views)
	}
	return plan
}

// visit is one virtual visitor's page views, in click order.
type visit struct {
	id   int
	urls []string
}

// arrival is one page view of an open-loop stream.
type arrival struct {
	visitor *visit
	// click indexes visitor.urls; click 0 is the visitor's first
	// request, click len-1 its last.
	click int
}

// visits draws visitors: each a never-seen client making one navigator
// session, cut to maxClicks clicks when maxClicks > 0 (a uniform 1 to
// maxClicks) and to maxLen otherwise.
type visits struct {
	nav       *loadgen.Navigator
	rng       *rand.Rand
	maxClicks int
	maxLen    int
	next      int
}

func newVisits(nav *loadgen.Navigator, seed int64, maxClicks, maxLen int) *visits {
	return &visits{nav: nav, rng: rand.New(rand.NewSource(seed)), maxClicks: maxClicks, maxLen: maxLen}
}

// draw returns the next visitor.
func (v *visits) draw() *visit {
	limit := v.maxLen
	if v.maxClicks > 0 {
		limit = 1 + v.rng.Intn(v.maxClicks)
	}
	cur, pCont := v.nav.Start(v.rng, 0)
	urls := []string{v.nav.URL(cur)}
	for len(urls) < limit && v.rng.Float64() < pCont {
		next, ok := v.nav.Next(v.rng, cur, 0)
		if !ok {
			break
		}
		cur = next
		urls = append(urls, v.nav.URL(cur))
	}
	vis := &visit{id: v.next, urls: urls}
	v.next++
	return vis
}

// stream interleaves the clicks of active visitors into one arrival
// sequence: each arrival continues a random one of the active slots,
// and a visitor who has made its last click is replaced by a fresh one.
type stream struct {
	src    *visits
	rng    *rand.Rand
	active []*visit
	pos    []int
}

func newStream(src *visits, seed int64, active int) *stream {
	return &stream{
		src:    src,
		rng:    rand.New(rand.NewSource(seed)),
		active: make([]*visit, active),
		pos:    make([]int, active),
	}
}

func (s *stream) next() arrival {
	i := s.rng.Intn(len(s.active))
	if s.active[i] == nil || s.pos[i] == len(s.active[i].urls) {
		s.active[i] = s.src.draw()
		s.pos[i] = 0
	}
	a := arrival{visitor: s.active[i], click: s.pos[i]}
	s.pos[i]++
	return a
}
