// Package loadgen is an open-loop HTTP load generator for the
// prefetching server: virtual clients take the session walk tracegen
// generates the offline traces with (popular session heads,
// primary-link continuations, hub returns), follow the X-Prefetch hint
// protocol through server.Client, and fire requests on a fixed arrival
// schedule regardless of completions — so latency under load is
// measured from each request's scheduled arrival time and never
// suffers coordinated omission.
//
// The package exists because the paper's claims are throughput-shaped:
// "low storage" and "fast prediction" only matter at some request
// rate. Generator.Run drives a scenario (steady rate, stepped sweep,
// flash-crowd burst, diurnal cycle) and reports per-slot open-loop
// latency quantiles, error rates, schedule lag, and the server's own
// /debug/slo verdicts; Generator.FindMax binary-searches for the
// highest steady rate the server sustains under an SLO gate — the
// max-sustainable-RPS headline metric. WarmStart is the one warm
// start: prefetchd boots its maintainer with it, and BootCluster serves
// what it publishes from an in-process cluster.
package loadgen

import (
	"pbppm/internal/server"
	"pbppm/internal/tracegen"
)

// Navigator is the session walk virtual clients take. It is
// tracegen's Walker, the walk every generated trace session takes;
// scenarios add a head shift, which slides the popular entry set down
// the popularity order for flash crowds.
type Navigator = tracegen.Walker

// NewNavigator builds a navigator over a site generated from p.
func NewNavigator(site *tracegen.Site, p tracegen.Profile) (*Navigator, error) {
	return tracegen.NewWalker(site, p)
}

// StoreFromSite materializes synthetic bodies for every page and image
// of a site — the content a capacity run serves.
func StoreFromSite(site *tracegen.Site) server.MapStore {
	store := server.MapStore{}
	for _, pg := range site.Pages {
		store[pg.URL] = server.Document{
			URL:         pg.URL,
			Body:        make([]byte, pg.Size),
			ContentType: "text/html; charset=utf-8",
		}
		for _, img := range pg.Images {
			store[img.URL] = server.Document{
				URL:         img.URL,
				Body:        make([]byte, img.Size),
				ContentType: "image/gif",
			}
		}
	}
	return store
}
