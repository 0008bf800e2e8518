package tracegen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pbppm/internal/session"
	"pbppm/internal/trace"
)

// goldenCases pin the generator's exact output. The digests were
// recorded from the record-based generator that sorted with
// trace.Trace.Sort; any change to a field, a timestamp's zone or the
// order of two records changes them.
var goldenCases = []struct {
	name     string
	profile  func() Profile
	records  int
	trace    string
	sessions string
}{
	{"nasa-1d", func() Profile { p := NASA(); p.Days = 1; return p },
		12953,
		"8a840f5d7daaeefc6f6d1f086e489a44a27e5ba9eccfb94e26da9294c506591c",
		"10adcfbd642bbe80e9af3d47499c71e3eada5599dfb87091533985b0fa744762"},
	{"nasa-7d", func() Profile { p := NASA(); p.Days = 7; return p },
		91333,
		"7158e1ec869d55d723c61a2ba6f81cde103a38fc2156a08d51a6b1c968832ec7",
		"8c753de852f57ee0e0f9fd86a71cc010bff07696aced409637de8cba148baa74"},
	{"ucbcs-1d", func() Profile { p := UCBCS(); p.Days = 1; return p },
		16157,
		"96999cb5d865c674f3ea7cc37e949e618ac67ae530a6f3d6e2a05633263386dc",
		"7ee026dcaef1940f54ec5e39b543844889c8e5f6a1dad7387651f75699f94b04"},
	{"ucbcs-7d", func() Profile { p := UCBCS(); p.Days = 7; return p },
		115576,
		"a43a65d8ebee5053500e7edec8a5c855b15f1c227c5312932790820c0317e056",
		"2157d0bece20a85525129fba327deead878384b39bd241800100b3b6070cf326"},
	{"nasa-7d-seed", func() Profile { p := NASA(); p.Days = 7; p.Seed = 424242; return p },
		87847,
		"0169b74926c96d7537f5546554c487729d21f79372d2c945abccb0f0b6e4ba87",
		"cb381e6a3f78123bdb29b859c76cda8c16adc0eccdfcb43629cf36df1cefcd16"},
	{"nasa-7d-diurnal", func() Profile { p := NASA(); p.Days = 7; p.Diurnal = true; return p },
		91709,
		"22c02a8c8576be2d9217ee26ff6c9d7338f80e87e67125af01cf44c3df32dee3",
		"64e14709f91611c79c415be2b47355f686d1c7551166f0da8d3e3042bcba7c1f"},
}

func TestGenerateGoldenDigests(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := Generate(c.profile())
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Records) != c.records {
				t.Errorf("%d records, want %d", len(tr.Records), c.records)
			}
			if got := traceDigest(tr); got != c.trace {
				t.Errorf("trace digest %s, want %s", got, c.trace)
			}
			if got := sessionsDigest(session.Sessionize(tr, session.Config{})); got != c.sessions {
				t.Errorf("sessions digest %s, want %s", got, c.sessions)
			}
		})
	}
}

// digester writes length-prefixed fields into a SHA-256.
type digester struct{ h hash.Hash }

func (d digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

// time hashes an instant as Unix seconds and nanoseconds plus its zone,
// so two equal instants in different zones digest differently.
func (d digester) time(t time.Time) {
	d.int(t.Unix())
	d.int(int64(t.Nanosecond()))
	name, off := t.Zone()
	d.str(name)
	d.int(int64(off))
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func traceDigest(tr *trace.Trace) string {
	d := digester{sha256.New()}
	d.time(tr.Epoch)
	d.int(int64(len(tr.Records)))
	for _, r := range tr.Records {
		d.str(r.Client)
		d.time(r.Time)
		d.str(r.Method)
		d.str(r.URL)
		d.int(int64(r.Status))
		d.int(r.Bytes)
	}
	return d.sum()
}

func sessionsDigest(sessions []session.Session) string {
	d := digester{sha256.New()}
	d.int(int64(len(sessions)))
	for _, s := range sessions {
		d.str(s.Client)
		d.int(int64(len(s.Views)))
		for _, v := range s.Views {
			d.str(v.URL)
			d.time(v.Time)
			d.int(v.Bytes)
			d.int(int64(len(v.Embedded)))
			for _, e := range v.Embedded {
				d.str(e.URL)
				d.int(e.Bytes)
			}
		}
	}
	return d.sum()
}

// TestHistoryOrderMatchesStableSortProperty emits events with heavy
// ties straight into a history and requires its records in exactly the
// order a stable sort by time, client and URL gives the same records in
// emission order. Two pages share a URL, so equal URLs of different
// sizes must keep their emission order too.
func TestHistoryOrderMatchesStableSortProperty(t *testing.T) {
	p := NASA()
	p.Pages = 40
	site, err := BuildSite(p)
	if err != nil {
		t.Fatal(err)
	}
	site.Pages[3].URL = site.Pages[7].URL
	site.Pages[3].Size = site.Pages[7].Size + 1
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		h := newHistory(site)
		var want []trace.Record
		for i := rng.Intn(400); i > 0; i-- {
			client := h.client(clientKey{clientKind(rng.Intn(3)), rng.Intn(12)})
			obj := int32(rng.Intn(len(h.objs)))
			at := time.Duration(rng.Intn(4)) * time.Second
			if rng.Intn(4) == 0 {
				at = time.Duration(rng.Int63n(int64(30 * 24 * time.Hour)))
			}
			h.emit(client, obj, at)
			want = append(want, trace.Record{
				Client: h.clients[client], Time: epoch.Add(at), Method: "GET",
				URL: h.objs[obj].url, Status: 200, Bytes: h.objs[obj].size,
			})
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if !a.Time.Equal(b.Time) {
				return a.Time.Before(b.Time)
			}
			if a.Client != b.Client {
				return a.Client < b.Client
			}
			return a.URL < b.URL
		})
		got := h.trace().Records
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
