// Command replay drives a live prefetching server (see cmd/prefetchd)
// with the sessions of an access log, one cooperating prefetching
// client per trace client, and reports the client-side hit ratios.
// Together with prefetchd it demonstrates the full system outside any
// simulator: generate a trace, start the server, replay the trace.
// Before reporting, every client delivers its last hit reports; replay
// exits 1 when any request or report delivery failed.
//
//	go run ./cmd/prefetchd -addr :8080 &
//	go run ./cmd/tracegen -profile nasa -days 1 -o day.log
//	go run ./cmd/replay -server http://localhost:8080 day.log
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"time"

	"pbppm/internal/obs"
	"pbppm/internal/server"
	"pbppm/internal/session"
	"pbppm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body; it returns the exit code: 0 when every
// request and every client's last hit reports reached the server, 1
// when any failed, 2 on bad usage. It returns rather than exits so the
// deferred profile stop runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8080", "prefetching server base URL")
		maxReqs   = fs.Int("max-requests", 0, "stop after this many requests (0 = whole trace)")
		noWait    = fs.Bool("no-wait", false, "do not wait for background prefetches between clicks")
		progress  = fs.Int("progress", 0, "log replay progress every N requests (0 = silent)")
	)
	var prof obs.ProfileFlags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: replay [-server URL] trace.log")
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(stderr, "replay: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "replay: %v\n", err)
		}
	}()
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "replay: %v\n", err)
		return 1
	}
	tr, skipped, err := trace.ReadCLF(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "replay: %v\n", err)
		return 1
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "replay: skipped %d unparseable lines\n", skipped)
	}

	sessions := session.Sessionize(tr, session.Config{})
	sort.SliceStable(sessions, func(i, j int) bool {
		return sessions[i].Start().Before(sessions[j].Start())
	})

	clients := map[string]*server.Client{}
	log := obs.Component(obs.NewLogger(stderr, slog.LevelInfo), "replay")
	replayStart := time.Now()
	var requests, hits, prefetchHits, errors int
replay:
	for _, s := range sessions {
		cl := clients[s.Client]
		if cl == nil {
			cl, err = server.NewClient(server.ClientConfig{ID: s.Client, BaseURL: *serverURL})
			if err != nil {
				fmt.Fprintf(stderr, "replay: %v\n", err)
				return 1
			}
			clients[s.Client] = cl
		}
		for _, v := range s.Views {
			if *maxReqs > 0 && requests >= *maxReqs {
				break replay
			}
			src, err := cl.Get(v.URL)
			requests++
			switch {
			case err != nil:
				errors++
			case src == "cache":
				hits++
			case src == "prefetch":
				hits++
				prefetchHits++
			}
			if !*noWait {
				cl.Wait()
			}
			if *progress > 0 && requests%*progress == 0 {
				elapsed := time.Since(replayStart)
				log.Info("replay progress",
					"requests", requests,
					"hit_ratio", fmt.Sprintf("%.3f", float64(hits)/float64(requests)),
					"prefetch_hits", prefetchHits,
					"errors", errors,
					"requests_per_sec", fmt.Sprintf("%.0f", float64(requests)/elapsed.Seconds()))
			}
		}
	}
	// A client's last hit reports ride on no later request: deliver
	// them, so the server's live scorer counts every hit replayed.
	flushErrors := 0
	for id, cl := range clients {
		cl.Wait()
		if err := cl.Flush(); err != nil {
			fmt.Fprintf(stderr, "replay: client %s: %v\n", id, err)
			flushErrors++
		}
	}
	report(stdout, requests, hits, prefetchHits, errors, len(clients))
	if errors > 0 || flushErrors > 0 {
		fmt.Fprintf(stderr, "replay: %d of %d requests and %d of %d report flushes failed\n",
			errors, requests, flushErrors, len(clients))
		return 1
	}
	return 0
}

func report(w io.Writer, requests, hits, prefetchHits, errors, clients int) {
	fmt.Fprintf(w, "replayed %d requests from %d clients\n", requests, clients)
	if requests == 0 {
		return
	}
	fmt.Fprintf(w, "hit ratio %.1f%% (%d hits, of which %d prefetch hits), %d errors\n",
		100*float64(hits)/float64(requests), hits, prefetchHits, errors)
}
