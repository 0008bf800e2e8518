package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"pbppm/internal/markov"
)

// FrozenKind identifies the frozen PB-PPM snapshot in snapshot
// envelopes.
const FrozenKind = "core/pbppm"

// wireFrozen is the gob image of a Frozen model: everything serving
// needs — the arena verbatim, the precomputed rule-3 link predictions,
// the freeze-time node count (the paper's space metric, which counts
// links the threshold already removed from the table below), and the
// threshold itself. The popularity ranking is deliberately not part of
// the model image; the snapshot envelope carries it beside the model so
// hint grading travels with the predictor (see maintain's snapshot
// wire format).
type wireFrozen struct {
	Name      string
	Threshold float64
	NodeCount int
	// Links is a slice, not a map: gob sizes a map from the entry count
	// in the stream before reading any entry, so one corrupt count could
	// make the decoder allocate gigabytes, while a slice grows only as
	// its elements arrive.
	Links []wireLinks
	Arena []byte
}

// wireLinks is one heading URL's precomputed rule-3 predictions.
type wireLinks struct {
	Head  string
	Preds []markov.Prediction
}

var _ markov.FrozenEncoder = (*Frozen)(nil)

// FrozenKind implements markov.FrozenEncoder.
func (f *Frozen) FrozenKind() string { return FrozenKind }

// EncodeFrozen implements markov.FrozenEncoder.
func (f *Frozen) EncodeFrozen(w io.Writer) error {
	bw := bufio.NewWriter(w)
	img := wireFrozen{
		Name:      f.name,
		Threshold: f.threshold,
		NodeCount: f.nodeCount,
		Arena:     f.arena.Bytes(),
	}
	for head, preds := range f.links {
		img.Links = append(img.Links, wireLinks{Head: head, Preds: preds})
	}
	if err := gob.NewEncoder(bw).Encode(img); err != nil {
		return fmt.Errorf("core: encoding frozen model: %w", err)
	}
	return bw.Flush()
}

func init() {
	markov.RegisterFrozenDecoder(FrozenKind, func(r io.Reader) (markov.Predictor, error) {
		var img wireFrozen
		if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&img); err != nil {
			return nil, fmt.Errorf("core: decoding frozen model: %w", err)
		}
		a, err := markov.ArenaFromBytes(img.Arena)
		if err != nil {
			return nil, fmt.Errorf("core: decoding frozen model: %w", err)
		}
		if img.NodeCount < a.NodeCount() {
			return nil, fmt.Errorf("core: decoding frozen model: node count %d below the arena's %d", img.NodeCount, a.NodeCount())
		}
		var links map[string][]markov.Prediction
		if len(img.Links) > 0 {
			links = make(map[string][]markov.Prediction, len(img.Links))
		}
		for _, l := range img.Links {
			for _, p := range l.Preds {
				if p.URL == "" || math.IsNaN(p.Probability) || p.Probability < 0 {
					return nil, fmt.Errorf("core: decoding frozen model: corrupt link candidate %+v under %q", p, l.Head)
				}
			}
			links[l.Head] = l.Preds
		}
		return &Frozen{
			name:      img.Name,
			arena:     a,
			threshold: img.Threshold,
			nodeCount: img.NodeCount,
			links:     links,
		}, nil
	})
}
