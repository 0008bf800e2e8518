package trace

import (
	"strings"
	"testing"
)

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
