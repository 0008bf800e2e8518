package loadgen

import (
	"fmt"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/tracegen"
)

// PBFactory builds the PB-PPM model prefetchd serves and maintains:
// the 1% relative-probability cut plus dropped singletons.
func PBFactory(rank *popularity.Ranking) markov.Predictor {
	return core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: true})
}

// WarmStart trains m on a generated history: days of p's traffic over
// site, shifted in place to end now so a window of at least that many
// days keeps every session, observed into m and rebuilt. It returns the
// model m publishes.
func WarmStart(m *maintain.Maintainer, site *tracegen.Site, p tracegen.Profile, days int) (markov.Predictor, error) {
	warm := p
	warm.Days = days
	tr, err := tracegen.GenerateOn(site, warm)
	if err != nil {
		return nil, fmt.Errorf("generating warm history: %w", err)
	}
	shift := time.Since(tr.Epoch.Add(time.Duration(days) * 24 * time.Hour))
	for _, s := range session.Sessionize(tr, session.Config{}) {
		for i := range s.Views {
			s.Views[i].Time = s.Views[i].Time.Add(shift)
		}
		m.Observe(s)
	}
	return m.Rebuild(time.Now()), nil
}
