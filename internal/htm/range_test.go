package htm

import (
	"math/rand"
	"testing"
)

func TestRangeSetBasics(t *testing.T) {
	s := NewRangeSet(4)
	if s.Len() != 0 || s.Count() != 0 {
		t.Fatal("empty set not empty")
	}
	n012, _ := Parse("N012")
	s.AddTrixel(n012)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if s.Count() != 16 { // depth-2 trixel covers 4² depth-4 trixels
		t.Fatalf("Count = %d, want 16", s.Count())
	}
	if !s.Contains(n012.Child(2)) {
		t.Error("set must contain child of added trixel")
	}
	if !s.Contains(n012) {
		t.Error("Contains must project shallower IDs to set depth")
	}
	other, _ := Parse("S000")
	if s.Contains(other) {
		t.Error("set must not contain unrelated trixel")
	}
}

// TestOverlapsTrixelAtAnyDepth: a trixel shallower than the set overlaps it
// when any descendant is covered, a deeper one when its ancestor is.
func TestOverlapsTrixelAtAnyDepth(t *testing.T) {
	n01, _ := Parse("N01")
	s := NewRangeSet(3)
	s.AddTrixel(n01.Child(2))
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"N0", true}, {"N01", true}, {"N012", true}, // ancestors and the trixel itself
		{"N0120", true}, {"N01233", true}, // descendants at the set's depth and below
		{"N011", false}, {"N0110", false}, {"N01130", false}, // a sibling and its descendants
		{"S0", false},
	} {
		id, err := Parse(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.OverlapsTrixel(id); got != tc.want {
			t.Errorf("OverlapsTrixel(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRangeSetMerging(t *testing.T) {
	s := NewRangeSet(3)
	// Adding all four children of a trixel must merge into one range equal
	// to the parent's range.
	parent, _ := Parse("N01")
	for i := 0; i < 4; i++ {
		s.AddTrixel(parent.Child(i))
	}
	if s.Len() != 1 {
		t.Fatalf("children did not merge: %v", s)
	}
	lo, hi := parent.RangeAtDepth(3)
	if s.Ranges()[0] != (Range{lo, hi}) {
		t.Fatalf("merged range %v, want [%d,%d]", s.Ranges()[0], lo, hi)
	}
	// Adding an overlapping range keeps the set normalized.
	s.AddRange(Range{lo - 2, lo + 1})
	if s.Len() != 1 || s.Ranges()[0].Lo != lo-2 {
		t.Fatalf("overlap merge failed: %v", s)
	}
	// Degenerate range is ignored.
	s.AddRange(Range{10, 5})
	if s.Len() != 1 {
		t.Fatalf("degenerate range changed set: %v", s)
	}
}

func TestRangeSetUnionIntersect(t *testing.T) {
	a := NewRangeSet(2)
	b := NewRangeSet(2)
	a.AddRange(Range{128, 140})
	a.AddRange(Range{150, 160})
	b.AddRange(Range{135, 155})

	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 1 || u.Ranges()[0] != (Range{128, 160}) {
		t.Fatalf("union = %v", u)
	}
	i, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Range{{135, 140}, {150, 155}}
	if i.Len() != 2 || i.Ranges()[0] != want[0] || i.Ranges()[1] != want[1] {
		t.Fatalf("intersect = %v, want %v", i, want)
	}
	if _, err := a.Union(NewRangeSet(3)); err == nil {
		t.Error("union across depths succeeded, want error")
	}
	if _, err := a.Intersect(NewRangeSet(3)); err == nil {
		t.Error("intersect across depths succeeded, want error")
	}
}

func TestFromTrixelsEquivalentToAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var ids []ID
		for i := 0; i < 30; i++ {
			id := ID(8 + rng.Intn(8))
			for d := rng.Intn(5); d > 0; d-- {
				id = id.Child(rng.Intn(4))
			}
			ids = append(ids, id)
		}
		bulk := FromTrixels(6, ids)
		inc := NewRangeSet(6)
		for _, id := range ids {
			inc.AddTrixel(id)
		}
		if bulk.String() != inc.String() {
			t.Fatalf("bulk %v != incremental %v", bulk, inc)
		}
		// Verify Contains against brute force over all leaf expansions.
		for _, id := range ids {
			lo, hi := id.RangeAtDepth(6)
			for probe := lo; probe <= hi; probe += (hi - lo + 3) / 4 {
				if !bulk.Contains(probe) {
					t.Fatalf("set missing leaf %d of %s", uint64(probe), id)
				}
			}
		}
	}
}

func TestRangeSetStringFormats(t *testing.T) {
	s := NewRangeSet(0)
	s.AddRange(Range{8, 8})
	s.AddRange(Range{12, 15})
	got := s.String()
	want := "depth0{8, 12-15}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
