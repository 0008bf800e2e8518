package main

import (
	"reflect"
	"testing"

	"pbppm/internal/loadgen"
	"pbppm/internal/tracegen"
)

func testNavigator(t *testing.T) *loadgen.Navigator {
	t.Helper()
	p := tracegen.NASA()
	site, err := tracegen.BuildSite(p)
	if err != nil {
		t.Fatal(err)
	}
	nav, err := loadgen.NewNavigator(site, p)
	if err != nil {
		t.Fatal(err)
	}
	return nav
}

func TestBrowsePlanIsFixedBySeed(t *testing.T) {
	nav := testNavigator(t)
	a, b := browsePlan(nav, 7, 8, 64), browsePlan(nav, 7, 8, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different browse plans")
	}
	if reflect.DeepEqual(a, browsePlan(nav, 8, 8, 64)) {
		t.Fatal("different seeds gave the same browse plan")
	}
	for i, urls := range a {
		if len(urls) != 64 {
			t.Fatalf("client %d has %d page views, want 64", i, len(urls))
		}
	}
}

// sequence draws n arrivals as (visitor, url) pairs.
func sequence(nav *loadgen.Navigator, seed int64, maxClicks, n int) [][2]any {
	s := newStream(newVisits(nav, seed, maxClicks, 0), seed+1, 16)
	out := make([][2]any, n)
	for i := range out {
		a := s.next()
		out[i] = [2]any{a.visitor.id, a.visitor.urls[a.click]}
	}
	return out
}

func TestStreamIsFixedBySeed(t *testing.T) {
	nav := testNavigator(t)
	if !reflect.DeepEqual(sequence(nav, 3, 3, 2000), sequence(nav, 3, 3, 2000)) {
		t.Fatal("same seed gave different arrival sequences")
	}
	if reflect.DeepEqual(sequence(nav, 3, 3, 2000), sequence(nav, 4, 3, 2000)) {
		t.Fatal("different seeds gave the same arrival sequence")
	}
}

func TestStreamVisitorsClickInOrder(t *testing.T) {
	nav := testNavigator(t)
	s := newStream(newVisits(nav, 5, 3, 0), 6, 16)
	next := map[int]int{}
	for i := 0; i < 5000; i++ {
		a := s.next()
		if n := len(a.visitor.urls); n < 1 || n > 3 {
			t.Fatalf("visitor %d makes %d clicks, want 1 to 3", a.visitor.id, n)
		}
		if a.click != next[a.visitor.id] {
			t.Fatalf("visitor %d: click %d arrived, want %d", a.visitor.id, a.click, next[a.visitor.id])
		}
		next[a.visitor.id]++
	}
}
