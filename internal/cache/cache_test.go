package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicPutGet(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 40, false)
	if ok, pf := c.Get("/a"); !ok || pf {
		t.Errorf("Get(/a) = %v,%v, want hit, not prefetched", ok, pf)
	}
	if ok, _ := c.Get("/b"); ok {
		t.Error("Get(/b) hit on empty entry")
	}
	if c.Used() != 40 || c.Len() != 1 || c.Capacity() != 100 {
		t.Errorf("Used=%d Len=%d Cap=%d", c.Used(), c.Len(), c.Capacity())
	}
}

func TestNewLRUPanics(t *testing.T) {
	for _, cap := range []int64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLRU(%d) did not panic", cap)
				}
			}()
			NewLRU(cap)
		}()
	}
}

func TestPutNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Put(size=-1) did not panic")
		}
	}()
	NewLRU(10).Put("/a", -1, false)
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 40, false)
	c.Put("/b", 40, false)
	c.Get("/a") // promote /a; /b is now LRU
	c.Put("/c", 40, false)
	if c.Contains("/b") {
		t.Error("/b not evicted")
	}
	if !c.Contains("/a") || !c.Contains("/c") {
		t.Error("wrong entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestOversizeDocumentIgnored(t *testing.T) {
	c := NewLRU(100)
	c.Put("/big", 200, false)
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("oversize document cached")
	}
	c.Put("/a", 60, false)
	c.Put("/big", 200, false)
	if !c.Contains("/a") {
		t.Error("oversize put disturbed existing entries")
	}
}

func TestUpdateExistingEntry(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 30, true)
	c.Put("/a", 50, false)
	if c.Used() != 50 || c.Len() != 1 {
		t.Errorf("Used=%d Len=%d after resize", c.Used(), c.Len())
	}
	if _, pf := c.Get("/a"); pf {
		t.Error("prefetch tag not updated")
	}
}

func TestPrefetchTagAndMarkDemand(t *testing.T) {
	c := NewLRU(100)
	c.Put("/p", 10, true)
	if _, pf := c.Get("/p"); !pf {
		t.Error("prefetch tag lost")
	}
	c.MarkDemand("/p")
	if _, pf := c.Get("/p"); pf {
		t.Error("MarkDemand did not clear tag")
	}
	c.MarkDemand("/absent") // must not panic
}

func TestRemove(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 10, false)
	if !c.Remove("/a") {
		t.Error("Remove(/a) = false")
	}
	if c.Remove("/a") {
		t.Error("second Remove(/a) = true")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Error("remove did not release space")
	}
}

func TestZeroSizeEntries(t *testing.T) {
	c := NewLRU(10)
	c.Put("/z", 0, false)
	if ok, _ := c.Get("/z"); !ok {
		t.Error("zero-size entry not cached")
	}
}

func TestStatsCounters(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 10, false)
	c.Get("/a")
	c.Get("/a")
	c.Get("/miss")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReset(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 10, false)
	c.Get("/a")
	c.Reset()
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("Reset left entries")
	}
	if st := c.Stats(); st.Hits != 0 || st.Puts != 0 {
		t.Errorf("Reset left stats %+v", st)
	}
	if c.Capacity() != 100 {
		t.Error("Reset changed capacity")
	}
	c.Put("/b", 10, false)
	if !c.Contains("/b") {
		t.Error("cache unusable after Reset")
	}
}

// Property: used bytes never exceed capacity and always equal the sum
// of resident entry sizes, across random operation sequences.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int64(capSeed)%500 + 50
		c := NewLRU(capacity)
		resident := make(map[string]int64)
		for _, op := range ops {
			url := fmt.Sprintf("/u%d", op%37)
			size := int64(op % 97)
			switch op % 3 {
			case 0:
				c.Put(url, size, op%2 == 0)
				if size <= capacity {
					resident[url] = size
				}
			case 1:
				c.Get(url)
			case 2:
				c.Remove(url)
				delete(resident, url)
			}
			// Rebuild resident from the cache's own view (evictions).
			var sum int64
			for u, s := range resident {
				if c.Contains(u) {
					sum += s
				} else {
					delete(resident, u)
				}
			}
			if c.Used() != sum || c.Used() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: LRU never evicts the most recently touched entry when at
// least two entries fit.
func TestMRUSurvivesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewLRU(1000)
	var last string
	for i := 0; i < 2000; i++ {
		url := fmt.Sprintf("/u%d", rng.Intn(50))
		size := int64(rng.Intn(400) + 1)
		c.Put(url, size, false)
		last = url
		if !c.Contains(last) {
			t.Fatalf("most recent entry %s (size %d) evicted", last, size)
		}
	}
}

// TestRePutAccounting pins the grow/shrink accounting on re-Put: used
// bytes must track the delta exactly, a shrink must free space without
// evicting, and a grow past capacity must evict older entries — never
// the re-put entry itself, which was just moved to the front.
func TestRePutAccounting(t *testing.T) {
	c := NewLRU(100)
	c.Put("/a", 40, false)
	c.Put("/b", 40, false)

	// Shrink: frees 30 bytes, no eviction.
	c.Put("/a", 10, false)
	if c.Used() != 50 || c.Len() != 2 {
		t.Fatalf("after shrink Used=%d Len=%d, want 50/2", c.Used(), c.Len())
	}

	// Grow within capacity: exact delta.
	c.Put("/a", 35, false)
	if c.Used() != 75 || c.Len() != 2 {
		t.Fatalf("after grow Used=%d Len=%d, want 75/2", c.Used(), c.Len())
	}

	// Grow past capacity: /b (older) is evicted, /a survives.
	c.Put("/a", 90, false)
	if c.Used() != 90 || c.Len() != 1 {
		t.Fatalf("after big grow Used=%d Len=%d, want 90/1", c.Used(), c.Len())
	}
	if c.Contains("/b") {
		t.Error("older entry /b survived the grow-evict")
	}
	if !c.Contains("/a") {
		t.Error("re-put entry /a was evicted by its own grow")
	}

	// Accounting stays exact across repeated same-size re-puts.
	for i := 0; i < 5; i++ {
		c.Put("/a", 90, false)
	}
	if c.Used() != 90 || c.Len() != 1 {
		t.Errorf("after repeated re-puts Used=%d Len=%d, want 90/1", c.Used(), c.Len())
	}
}

// listLRU is the container/list LRU that LRU replaced, kept as the
// reference TestLRUMatchesListReference compares against.
type listLRU struct {
	capacity int64
	used     int64
	ll       *list.List               // front = most recent
	items    map[string]*list.Element // url -> element holding *entry

	hits, misses, puts, evictions int64
}

func newListLRU(capacity int64) *listLRU {
	return &listLRU{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *listLRU) Contains(url string) bool {
	_, ok := c.items[url]
	return ok
}

func (c *listLRU) Get(url string) (ok, prefetched bool) {
	el, found := c.items[url]
	if !found {
		c.misses++
		return false, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return true, el.Value.(*entry).prefetched
}

func (c *listLRU) Put(url string, size int64, prefetched bool) {
	if size > c.capacity {
		return
	}
	c.puts++
	if el, ok := c.items[url]; ok {
		e := el.Value.(*entry)
		c.used += size - e.size
		e.size = size
		e.prefetched = prefetched
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry{url: url, size: size, prefetched: prefetched})
		c.items[url] = el
		c.used += size
	}
	for c.used > c.capacity {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.evictions++
		c.removeElement(el)
	}
}

func (c *listLRU) MarkDemand(url string) {
	if el, ok := c.items[url]; ok {
		el.Value.(*entry).prefetched = false
	}
}

func (c *listLRU) Remove(url string) bool {
	el, ok := c.items[url]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

func (c *listLRU) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.url)
	c.used -= e.size
}

func (c *listLRU) Reset() {
	c.ll = list.New()
	c.items = make(map[string]*list.Element)
	c.used = 0
	c.hits, c.misses, c.puts, c.evictions = 0, 0, 0, 0
}

func (c *listLRU) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Puts: c.puts, Evictions: c.evictions}
}

// order lists the cached URLs, most recent first.
func (c *listLRU) order() []string {
	var out []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).url)
	}
	return out
}

// order lists the cached URLs, most recent first, checking the links
// both ways as it walks.
func (c *LRU) order(t *testing.T) []string {
	t.Helper()
	var out []string
	prev := int32(0)
	for i := c.entries[0].next; i != 0; i = c.entries[i].next {
		if c.entries[i].prev != prev {
			t.Fatalf("slot %d links back to %d, want %d", i, c.entries[i].prev, prev)
		}
		if j, ok := c.items[c.entries[i].url]; !ok || j != i {
			t.Fatalf("slot %d (%s) indexed at %d, %v", i, c.entries[i].url, j, ok)
		}
		out = append(out, c.entries[i].url)
		prev = i
		if len(out) > len(c.items) {
			t.Fatal("recency list longer than the index: a cycle")
		}
	}
	if c.entries[0].prev != prev {
		t.Fatalf("root links back to %d, want the last slot %d", c.entries[0].prev, prev)
	}
	return out
}

// TestLRUMatchesListReference drives the index-linked LRU and the
// container/list reference through the same seeded random operation
// sequences — puts that evict and re-puts that change size and tag,
// gets, containment checks, demand marks, removes and resets — and
// compares every result, the counters and the recency order after each
// operation.
func TestLRUMatchesListReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(rng.Intn(400) + 50)
		got, want := NewLRU(capacity), newListLRU(capacity)
		urls := rng.Intn(40) + 2
		for op := 0; op < 3000; op++ {
			url := fmt.Sprintf("/u%d", rng.Intn(urls))
			var desc string
			switch k := rng.Intn(20); {
			case k < 8:
				// Up to 60% of capacity, so puts evict; past capacity now
				// and then, so oversize documents are ignored.
				size := rng.Int63n(capacity*6/10 + 1)
				if rng.Intn(25) == 0 {
					size = capacity + 1 + rng.Int63n(10)
				}
				pf := rng.Intn(2) == 0
				got.Put(url, size, pf)
				want.Put(url, size, pf)
				desc = fmt.Sprintf("Put(%s, %d, %v)", url, size, pf)
			case k < 13:
				gok, gpf := got.Get(url)
				wok, wpf := want.Get(url)
				desc = fmt.Sprintf("Get(%s)", url)
				if gok != wok || gpf != wpf {
					t.Fatalf("seed %d op %d: %s = %v,%v, reference %v,%v", seed, op, desc, gok, gpf, wok, wpf)
				}
			case k < 15:
				desc = fmt.Sprintf("Contains(%s)", url)
				if g, w := got.Contains(url), want.Contains(url); g != w {
					t.Fatalf("seed %d op %d: %s = %v, reference %v", seed, op, desc, g, w)
				}
			case k < 17:
				got.MarkDemand(url)
				want.MarkDemand(url)
				desc = fmt.Sprintf("MarkDemand(%s)", url)
			case k < 19:
				desc = fmt.Sprintf("Remove(%s)", url)
				if g, w := got.Remove(url), want.Remove(url); g != w {
					t.Fatalf("seed %d op %d: %s = %v, reference %v", seed, op, desc, g, w)
				}
			default:
				if rng.Intn(10) != 0 {
					continue
				}
				got.Reset()
				want.Reset()
				desc = "Reset()"
			}
			if got.Len() != len(want.items) || got.Used() != want.used || got.Stats() != want.Stats() {
				t.Fatalf("seed %d op %d after %s: Len %d Used %d Stats %+v, reference Len %d Used %d Stats %+v",
					seed, op, desc, got.Len(), got.Used(), got.Stats(), len(want.items), want.used, want.Stats())
			}
			if g, w := got.order(t), want.order(); !slices.Equal(g, w) {
				t.Fatalf("seed %d op %d after %s: cached %v, reference %v", seed, op, desc, g, w)
			}
		}
	}
}
