package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"pbppm/internal/tracegen"
)

// walkGoldens pin the navigator's draws on the full NASA and UCB-CS
// sites: every session head, continue probability and click of 200
// sessions for each of three seeds, at head shifts of 0, 50 and past
// the end of the popularity order (which clamps to its last window).
var walkGoldens = []struct {
	name    string
	profile func() tracegen.Profile
	shift   int
	digest  string
}{
	{"nasa-shift0", tracegen.NASA, 0,
		"2d2a490382235a407463176c3794481b21aea7ad42ebfdc5f66459adf4925418"},
	{"nasa-shift50", tracegen.NASA, 50,
		"78c8841c9dcb9eda5a401093a5043cd5437f82b55ee05ccdbc2f815da44fe248"},
	{"nasa-shift-past-end", tracegen.NASA, 100_000,
		"29c6eaecb28a7c5202d731edd1d7338352d429f604ae060d70ea8e2d221e3f31"},
	{"ucbcs-shift0", tracegen.UCBCS, 0,
		"a6882cf4cde07e1f739e44824adac26e20cd4f53e495448b93c3aa062e446daf"},
	{"ucbcs-shift50", tracegen.UCBCS, 50,
		"12322fffe202d94f2f5edad31b16c9067109fcbde42575cee78a9ca2536d42f5"},
	{"ucbcs-shift-past-end", tracegen.UCBCS, 100_000,
		"7a48faf41362580b543dce10bf0619e1cbc1ee5bbf5cb9f1dabbc8dfb7d456a7"},
}

func TestNavigatorWalkDigests(t *testing.T) {
	for _, c := range walkGoldens {
		t.Run(c.name, func(t *testing.T) {
			p := c.profile()
			site, err := tracegen.BuildSite(p)
			if err != nil {
				t.Fatal(err)
			}
			nav, err := NewNavigator(site, p)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for s := 0; s < 200; s++ {
					cur, pCont := nav.Start(rng, c.shift)
					put(uint64(cur))
					put(math.Float64bits(pCont))
					for click := 1; click < p.MaxSessionLen && rng.Float64() < pCont; click++ {
						next, ok := nav.Next(rng, cur, c.shift)
						if !ok {
							put(math.MaxUint64)
							break
						}
						cur = next
						put(uint64(cur))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("walk digest %s, want %s", got, c.digest)
			}
		})
	}
}
