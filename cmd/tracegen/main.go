// Command tracegen emits a synthetic Web-server access log in Common
// Log Format, using the NASA-like or UCB-CS-like workload profile.
//
// Usage:
//
//	tracegen [-profile nasa|ucbcs] [-days N] [-sessions N] [-pages N]
//	         [-seed N] [-o trace.log] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"os"

	"pbppm/internal/obs"
	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

func main() {
	os.Exit(realMain())
}

// realMain returns the exit code so the deferred profile stop runs
// before the process exits.
func realMain() int {
	var (
		profileName = flag.String("profile", "nasa", "workload profile: nasa or ucbcs")
		days        = flag.Int("days", 0, "override number of days (0 = profile default)")
		sessions    = flag.Int("sessions", 0, "override sessions per day (0 = profile default)")
		pages       = flag.Int("pages", 0, "override site page count (0 = profile default)")
		seed        = flag.Int64("seed", 0, "override random seed (0 = profile default: nasa 19950701, ucbcs 20000701)")
		out         = flag.String("o", "", "output file (default: stdout)")
		split       = flag.Bool("split", false, "write one file per day: <o>.day<N> (requires -o)")
		anonSalt    = flag.String("anonymize", "", "replace client identifiers with salted pseudonyms")
	)
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	p, err := tracegen.ProfileNamed(*profileName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		return 2
	}
	if *days > 0 {
		p.Days = *days
	}
	if *sessions > 0 {
		p.SessionsPerDay = *sessions
	}
	if *pages > 0 {
		p.Pages = *pages
	}
	if *seed != 0 {
		p.Seed = *seed
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		}
	}()

	tr, err := tracegen.Generate(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		return 1
	}
	if *anonSalt != "" {
		tr = tr.Anonymize(*anonSalt)
	}

	if *split {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "tracegen: -split requires -o")
			return 2
		}
		for day, sub := range tr.SplitByDay() {
			name := fmt.Sprintf("%s.day%d", *out, day)
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
				return 1
			}
			if err := trace.WriteCLF(f, sub); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
				return 1
			}
			f.Close()
		}
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d records into per-day files %s.dayN\n",
			len(tr.Records), *out)
		return 0
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteCLF(w, tr); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d records over %d days (profile %s, seed %d)\n",
		len(tr.Records), tr.Days(), p.Name, p.Seed)
	return 0
}
