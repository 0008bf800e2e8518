package trace

import (
	"strings"
	"testing"
)

func TestMergeTraces(t *testing.T) {
	a := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 10, "a", "/1", 1), rec(1, 5, "a", "/2", 1),
	}}
	b := &Trace{Epoch: epoch.Add(-24 * 3600 * 1e9), Records: []Record{
		rec(0, 3, "b", "/3", 1),
	}}
	m := Merge(a, b, nil, &Trace{})
	if len(m.Records) != 3 {
		t.Fatalf("merged %d records", len(m.Records))
	}
	if !m.Epoch.Equal(b.Epoch) {
		t.Errorf("epoch = %v, want the earliest", m.Epoch)
	}
	for i := 1; i < len(m.Records); i++ {
		if m.Records[i].Time.Before(m.Records[i-1].Time) {
			t.Error("merged trace unsorted")
		}
	}
	if got := Merge(); len(got.Records) != 0 {
		t.Error("empty merge not empty")
	}
}

func TestAnonymize(t *testing.T) {
	tr := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 1, "alice.example.com", "/1", 1),
		rec(0, 2, "bob.example.com", "/2", 1),
		rec(0, 3, "alice.example.com", "/3", 1),
	}}
	anon := tr.Anonymize("pepper")
	if len(anon.Records) != 3 {
		t.Fatal("records lost")
	}
	if anon.Records[0].Client == "alice.example.com" {
		t.Error("client not anonymized")
	}
	if !strings.HasPrefix(anon.Records[0].Client, "client-") {
		t.Errorf("pseudonym format: %q", anon.Records[0].Client)
	}
	// Stability: same client, same pseudonym; different clients differ.
	if anon.Records[0].Client != anon.Records[2].Client {
		t.Error("pseudonym not stable")
	}
	if anon.Records[0].Client == anon.Records[1].Client {
		t.Error("distinct clients collided")
	}
	// Original untouched; different salt changes pseudonyms.
	if tr.Records[0].Client != "alice.example.com" {
		t.Error("Anonymize mutated the source")
	}
	other := tr.Anonymize("different-salt")
	if other.Records[0].Client == anon.Records[0].Client {
		t.Error("salt ignored")
	}
}

func TestSplitByDay(t *testing.T) {
	tr := &Trace{Epoch: epoch, Records: []Record{
		rec(0, 1, "a", "/1", 100),
		rec(0, 2, "a", "/2", 200),
		rec(2, 3, "b", "/3", 300), // day 1 empty
	}}
	byDay := tr.SplitByDay()
	if len(byDay) != 2 || len(byDay[0].Records) != 2 || len(byDay[2].Records) != 1 {
		t.Errorf("SplitByDay = %v", byDay)
	}
}
