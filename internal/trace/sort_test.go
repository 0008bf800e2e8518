package trace

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// oracleSort is the order Sort must keep: by instant, then client, then
// URL, with equal records left in input order.
func oracleSort(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.URL < b.URL
	})
}

// tieHeavyRecords draws records from a few instants, clients and URLs,
// so most comparisons tie on a prefix of the key. Equal instants come
// in different zones, equal client and URL pairs carry different
// statuses and sizes, and the instants include the years 1600 and
// 2300, which ParseCLF accepts and a UnixNano key cannot hold.
func tieHeavyRecords(rng *rand.Rand, n int) []Record {
	bases := []time.Time{
		time.Date(1995, 7, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 12, 31, 23, 59, 58, 0, time.UTC),
	}
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("", -4*3600),
		time.FixedZone("PST", -8*3600),
		time.FixedZone("", 5*3600+1800),
	}
	out := make([]Record, n)
	for i := range out {
		at := bases[rng.Intn(len(bases))].Add(time.Duration(rng.Intn(3)) * time.Second)
		out[i] = Record{
			Client: string(rune('a' + rng.Intn(3))),
			Time:   at.In(zones[rng.Intn(len(zones))]),
			Method: "GET",
			URL:    "/" + strconv.Itoa(rng.Intn(3)),
			Status: []int{200, 304, 404}[rng.Intn(3)],
			Bytes:  int64(rng.Intn(4)),
		}
	}
	return out
}

func TestTraceSortMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		in := tieHeavyRecords(rng, rng.Intn(200))
		switch trial % 3 {
		case 1: // already in order
			oracleSort(in)
		case 2: // in time order, ties in arrival order
			sort.SliceStable(in, func(i, j int) bool { return in[i].Time.Before(in[j].Time) })
		}
		want := slices.Clone(in)
		oracleSort(want)
		tr := &Trace{Records: in}
		tr.Sort()
		for i := range want {
			if tr.Records[i] != want[i] {
				t.Fatalf("trial %d: record %d = %+v, want %+v", trial, i, tr.Records[i], want[i])
			}
		}
	}
}

func TestTraceSortSortedDoesNotAllocate(t *testing.T) {
	tr := &Trace{Records: sortBenchRecords(rand.New(rand.NewSource(1)), 5000)}
	oracleSort(tr.Records)
	if n := testing.AllocsPerRun(20, tr.Sort); n != 0 {
		t.Fatalf("Sort of a sorted trace made %v allocs, want 0", n)
	}
}

// sortBenchRecords draws n records about one per second of a day from
// 300 clients and 1,500 URLs, so some seconds hold several records, as
// in a real access log.
func sortBenchRecords(rng *rand.Rand, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Client: "client" + strconv.Itoa(rng.Intn(300)) + ".example.com",
			Time:   epoch.Add(time.Duration(rng.Intn(n)) * time.Second),
			Method: "GET",
			URL:    "/dir/page" + strconv.Itoa(rng.Intn(1500)) + ".html",
			Status: 200,
			Bytes:  int64(rng.Intn(10000)),
		}
	}
	return out
}

// BenchmarkTraceSort sorts 91k records, the size of the 7-day NASA
// history: already sorted; nearly sorted, meaning in time order with
// each second's records shuffled; and shuffled.
func BenchmarkTraceSort(b *testing.B) {
	const n = 91_333
	rng := rand.New(rand.NewSource(1))
	sorted := sortBenchRecords(rng, n)
	oracleSort(sorted)
	nearly := slices.Clone(sorted)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && nearly[hi].Time.Equal(nearly[lo].Time) {
			hi++
		}
		rng.Shuffle(hi-lo, func(i, j int) { nearly[lo+i], nearly[lo+j] = nearly[lo+j], nearly[lo+i] })
		lo = hi
	}
	shuffled := slices.Clone(sorted)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	for _, c := range []struct {
		name string
		in   []Record
	}{{"sorted", sorted}, {"nearly-sorted", nearly}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			tr := &Trace{Records: make([]Record, n)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(tr.Records, c.in)
				b.StartTimer()
				tr.Sort()
			}
		})
	}
}
