package popularity

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
)

// wireRanking is the gob image of a Ranking. The counts travel as
// parallel slices, not a map: gob sizes a map from the entry count in
// the stream before reading any entry, so one corrupt count could make
// the decoder allocate gigabytes, while a slice grows only as its
// elements arrive.
//
// Images from older builds also carry Base and Grades, the grade scale
// those builds let a caller choose. gob skips fields the destination
// lacks, so such an image decodes onto the paper's fixed scale; an
// older build reads this image's missing fields as 0, which it takes
// as the paper's scale too.
type wireRanking struct {
	URLs   []string
	Counts []int64
}

// Encode serializes the ranking so a server can persist its popularity
// state across restarts (the paper notes popularity is stable over
// long periods, which is what makes persisting it worthwhile).
func (rk *Ranking) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	img := wireRanking{
		URLs:   make([]string, 0, len(rk.counts)),
		Counts: make([]int64, 0, len(rk.counts)),
	}
	for u, c := range rk.counts {
		img.URLs = append(img.URLs, u)
		img.Counts = append(img.Counts, c)
	}
	if err := gob.NewEncoder(bw).Encode(img); err != nil {
		return fmt.Errorf("popularity: encoding ranking: %w", err)
	}
	return bw.Flush()
}

// DecodeRanking reads a ranking written by Encode.
func DecodeRanking(r io.Reader) (*Ranking, error) {
	var img wireRanking
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&img); err != nil {
		return nil, fmt.Errorf("popularity: decoding ranking: %w", err)
	}
	if len(img.URLs) != len(img.Counts) {
		return nil, fmt.Errorf("popularity: decoding ranking: %d URLs for %d counts", len(img.URLs), len(img.Counts))
	}
	rk := &Ranking{counts: make(map[string]int64, len(img.URLs))}
	for i, u := range img.URLs {
		rk.counts[u] = img.Counts[i]
	}
	for _, c := range rk.counts {
		if c > rk.max {
			rk.max = c
		}
	}
	return rk, nil
}
