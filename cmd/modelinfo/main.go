// Command modelinfo inspects a model snapshot image (pbppmSN2): node
// and leaf counts, depth histogram, memory footprint, and the hottest
// branches. Every model the library can freeze ships as the same frozen
// type, so every image is read the same way. Images are written by
// prefetchsim -save-model, served by prefetchd's /snapshot endpoint,
// and produced by the library's EncodeSnapshot.
//
// Usage:
//
//	modelinfo [-top N] model.snap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pbppm/internal/maintain"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modelinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "hot branches to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: modelinfo [-top N] model.snap")
		return 2
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "modelinfo: %v\n", err)
		return 1
	}
	snap, err := maintain.DecodeSnapshot(data)
	if err != nil {
		fmt.Fprintf(stderr, "modelinfo: %s: %v\n", path, err)
		return 1
	}

	// Statistics come from Arena.Stats, the implementation shared with
	// the benchmark artifacts and the server's model-health gauges.
	m := snap.Model
	st := m.Arena().Stats()
	fmt.Fprintf(stdout, "%s: %s (snapshot version %d), %d nodes\n",
		path, m.Name(), snap.Version, m.NodeCount())
	fmt.Fprint(stdout, st)
	if m.NodeCount() > st.Nodes {
		// PB-PPM's node count adds its rule-3 links to the tree's nodes.
		fmt.Fprintf(stdout, "duplicated links: %d\n", m.NodeCount()-st.Nodes)
	}
	if snap.Ranking != nil {
		fmt.Fprintf(stdout, "ranking: %d URLs\n", snap.Ranking.Len())
	}
	if *top > 0 {
		fmt.Fprintln(stdout, "hot branches:")
		for _, b := range m.Arena().TopBranches(*top) {
			fmt.Fprintf(stdout, "  %-40s %.3f\n", b.URL, b.Probability)
		}
	}
	return 0
}
