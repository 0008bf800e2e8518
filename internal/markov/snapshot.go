// Frozen-model serialization: the piece that lets one process train a
// model and every other process serve it.
//
// Every model serves and ships as a FrozenTree, so one codec carries
// them all: EncodeFrozen writes the serving parameters beside the arena
// image verbatim (little-endian, so it reads the same on any machine),
// and DecodeFrozen revives the model after validating everything it
// reads — a snapshot may arrive truncated or corrupted over the
// network, so a bad image is an error, never a panic or a model that
// cannot predict.
package markov

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// wireFrozenTree is the gob image of a FrozenTree. The arena travels as
// its raw image; ArenaFromBytes re-validates every offset on decode.
type wireFrozenTree struct {
	Name        string
	Threshold   float64
	ClampHeight int
	NodeCount   int
	Blend       bool
	// Links is a slice, not a map: gob sizes a map from the entry count
	// in the stream before reading any entry, so one corrupt count could
	// make the decoder allocate gigabytes, while a slice grows only as
	// its elements arrive.
	Links []wireLinks
	Arena []byte
}

// wireLinks is one current click's extra candidates.
type wireLinks struct {
	Head  string
	Preds []Prediction
}

// EncodeFrozen writes the model's full serving state: its parameters,
// its extra candidates by click in URL order, and the arena image.
func (f *FrozenTree) EncodeFrozen(w io.Writer) error {
	img := wireFrozenTree{
		Name:        f.name,
		Threshold:   f.threshold,
		ClampHeight: f.clampHeight,
		NodeCount:   f.nodeCount,
		Blend:       f.blend,
		Arena:       f.arena.Bytes(),
	}
	heads := make([]string, 0, len(f.links))
	for head := range f.links {
		heads = append(heads, head)
	}
	sort.Strings(heads)
	for _, head := range heads {
		img.Links = append(img.Links, wireLinks{Head: head, Preds: f.links[head]})
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(img); err != nil {
		return fmt.Errorf("markov: encoding frozen tree: %w", err)
	}
	return bw.Flush()
}

// DecodeFrozen revives a model written by EncodeFrozen. It refuses an
// image whose serving state is inconsistent: a NaN threshold (no
// candidate would ever pass it), a node count below the arena's, or an
// extra candidate with an empty URL or a NaN or negative probability.
func DecodeFrozen(r io.Reader) (*FrozenTree, error) {
	var img wireFrozenTree
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&img); err != nil {
		return nil, fmt.Errorf("markov: decoding frozen tree: %w", err)
	}
	if math.IsNaN(img.Threshold) {
		return nil, errors.New("markov: decoding frozen tree: NaN threshold")
	}
	a, err := ArenaFromBytes(img.Arena)
	if err != nil {
		return nil, fmt.Errorf("markov: decoding frozen tree: %w", err)
	}
	if img.NodeCount < a.NodeCount() {
		return nil, fmt.Errorf("markov: decoding frozen tree: node count %d below the arena's %d", img.NodeCount, a.NodeCount())
	}
	var links map[string][]Prediction
	if len(img.Links) > 0 {
		links = make(map[string][]Prediction, len(img.Links))
	}
	for _, l := range img.Links {
		for _, p := range l.Preds {
			if p.URL == "" || math.IsNaN(p.Probability) || p.Probability < 0 {
				return nil, fmt.Errorf("markov: decoding frozen tree: corrupt candidate %+v under %q", p, l.Head)
			}
		}
		links[l.Head] = l.Preds
	}
	return NewFrozenTree(a, FrozenParams{
		Name:        img.Name,
		Threshold:   img.Threshold,
		ClampHeight: img.ClampHeight,
		NodeCount:   img.NodeCount,
		Links:       links,
		Blend:       img.Blend,
	}), nil
}
