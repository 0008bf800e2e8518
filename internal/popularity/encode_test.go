package popularity

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestRankingEncodeDecode(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/a", 1000)
	rk.Observe("/b", 10)
	rk.Observe("/c", 1)

	var buf bytes.Buffer
	if err := rk.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeRanking(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != 3 || got.MaxCount() != 1000 {
		t.Errorf("Len=%d Max=%d", got.Len(), got.MaxCount())
	}
	for _, u := range []string{"/a", "/b", "/c", "/missing"} {
		if got.GradeOf(u) != rk.GradeOf(u) || got.Count(u) != rk.Count(u) {
			t.Errorf("%s: grade/count drifted after round trip", u)
		}
	}
	// Decoded ranking keeps accepting observations.
	got.Observe("/a", 500)
	if got.Count("/a") != 1500 || got.MaxCount() != 1500 {
		t.Error("decoded ranking did not observe")
	}
}

// olderWireRanking is the ranking image of builds that let a caller
// choose the grade scale: the current fields plus Base and Grades.
type olderWireRanking struct {
	URLs   []string
	Counts []int64
	Base   float64
	Grades int
}

func encodeOlder(t *testing.T, img olderWireRanking) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestDecodeRankingOlderLayout(t *testing.T) {
	want := NewRanking()
	img := olderWireRanking{Base: 10, Grades: 3}
	for u, c := range map[string]int64{"/a": 1000, "/b": 50, "/c": 5, "/d": 1} {
		want.Observe(u, c)
		img.URLs = append(img.URLs, u)
		img.Counts = append(img.Counts, c)
	}
	got, err := DecodeRanking(encodeOlder(t, img))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"/a", "/b", "/c", "/d", "/missing"} {
		if got.GradeOf(u) != want.GradeOf(u) || got.Count(u) != want.Count(u) {
			t.Errorf("%s: grade %v count %d, want %v %d", u, got.GradeOf(u), got.Count(u), want.GradeOf(u), want.Count(u))
		}
	}
	// A custom scale in an older image is not honored: its URLs grade
	// on the paper's scale like any other.
	custom, err := DecodeRanking(encodeOlder(t, olderWireRanking{
		URLs: []string{"/top", "/half"}, Counts: []int64{128, 64}, Base: 2, Grades: 7,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if g := custom.GradeOf("/top"); g != MaxGrade {
		t.Errorf("GradeOf(/top) = %v, want %v", g, MaxGrade)
	}
}

func TestOlderLayoutReadsImage(t *testing.T) {
	rk := NewRanking()
	rk.Observe("/a", 7)
	var buf bytes.Buffer
	if err := rk.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// An older build decodes into its own struct; a zero Base and
	// Grades select its paper-scale fallback.
	var old olderWireRanking
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.Base != 0 || old.Grades != 0 {
		t.Errorf("older layout read Base %v Grades %d, want 0 and 0", old.Base, old.Grades)
	}
	if len(old.URLs) != 1 || old.URLs[0] != "/a" || old.Counts[0] != 7 {
		t.Errorf("older layout read %v %v", old.URLs, old.Counts)
	}
}

func TestDecodeRankingError(t *testing.T) {
	if _, err := DecodeRanking(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("junk accepted")
	}
}

func TestEncodeEmptyRanking(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRanking().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRanking(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got.Observe("/x", 1)
	if got.Count("/x") != 1 {
		t.Error("empty round-tripped ranking unusable")
	}
}
