package htm

import (
	"fmt"
	"sort"
	"strings"
)

// Range is an inclusive interval [Lo, Hi] of trixel IDs at a common depth.
// Because sibling trixels have consecutive IDs and a parent's descendants
// occupy a contiguous block, spatial coverage compresses extremely well into
// few ranges — the representation the archive's index stores and joins on.
type Range struct {
	Lo, Hi ID
}

// Contains reports whether the range includes id (already at the same depth).
func (r Range) Contains(id ID) bool { return id >= r.Lo && id <= r.Hi }

// Count returns the number of trixels in the range.
func (r Range) Count() uint64 { return uint64(r.Hi-r.Lo) + 1 }

// RangeSet is a sorted, non-overlapping, non-adjacent set of ID ranges at a
// single depth. The zero value is an empty set ready to use.
type RangeSet struct {
	depth  int
	ranges []Range
}

// NewRangeSet returns an empty range set for trixel IDs at the given depth.
func NewRangeSet(depth int) *RangeSet {
	return &RangeSet{depth: depth}
}

// Depth returns the depth the set's IDs live at.
func (s *RangeSet) Depth() int { return s.depth }

// Ranges returns the underlying sorted ranges. The slice must not be
// modified.
func (s *RangeSet) Ranges() []Range { return s.ranges }

// Len returns the number of disjoint ranges.
func (s *RangeSet) Len() int { return len(s.ranges) }

// Count returns the total number of depth-level trixels covered.
func (s *RangeSet) Count() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r.Count()
	}
	return n
}

// AddTrixel inserts a trixel (at any depth ≤ the set's depth) by expanding
// it to its ID range at the set depth.
func (s *RangeSet) AddTrixel(id ID) {
	lo, hi := id.RangeAtDepth(s.depth)
	if lo == Invalid {
		return
	}
	s.AddRange(Range{lo, hi})
}

// AddRange inserts a raw range, keeping the set sorted and merged.
// Insertion is O(n) in the number of ranges; coverage construction uses
// the bulk FromTrixels path instead.
func (s *RangeSet) AddRange(r Range) {
	if r.Hi < r.Lo {
		return
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Lo > r.Lo })
	s.ranges = append(s.ranges, Range{})
	copy(s.ranges[i+1:], s.ranges[i:])
	s.ranges[i] = r
	s.normalize()
}

// normalize merges overlapping or adjacent ranges in place.
func (s *RangeSet) normalize() {
	if len(s.ranges) < 2 {
		return
	}
	sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].Lo < s.ranges[j].Lo })
	out := s.ranges[:1]
	for _, r := range s.ranges[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 { // overlapping or adjacent
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	s.ranges = out
}

// FromTrixels builds a range set at the given depth from a list of trixels
// of mixed depths (all ≤ depth). It is the bulk constructor used by region
// coverage.
func FromTrixels(depth int, ids []ID) *RangeSet {
	s := NewRangeSet(depth)
	s.ranges = make([]Range, 0, len(ids))
	for _, id := range ids {
		lo, hi := id.RangeAtDepth(depth)
		if lo == Invalid {
			continue
		}
		s.ranges = append(s.ranges, Range{lo, hi})
	}
	s.normalize()
	return s
}

// Contains reports whether the set covers the given trixel ID. IDs at a
// different depth are first projected to the set's depth.
func (s *RangeSet) Contains(id ID) bool {
	d := id.Depth()
	if d < 0 {
		return false
	}
	if d != s.depth {
		id = id.AtDepth(s.depth)
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi >= id })
	return i < len(s.ranges) && s.ranges[i].Contains(id)
}

// OverlapsRange reports whether any part of [lo, hi] (IDs at the set's
// depth) is covered by the set. Container scans use this to decide whether a
// coarse clustering unit can hold candidates for a query's coverage.
func (s *RangeSet) OverlapsRange(lo, hi ID) bool {
	if hi < lo {
		return false
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi >= lo })
	return i < len(s.ranges) && s.ranges[i].Lo <= hi
}

// OverlapsTrixel reports whether the set covers any part of the given
// trixel. A trixel deeper than the set overlaps it exactly when its
// ancestor at the set's depth is covered.
func (s *RangeSet) OverlapsTrixel(id ID) bool {
	if id.Depth() > s.depth {
		return s.Contains(id)
	}
	lo, hi := id.RangeAtDepth(s.depth)
	if lo == Invalid {
		return false
	}
	return s.OverlapsRange(lo, hi)
}

// Union returns the set union of two range sets at the same depth.
func (s *RangeSet) Union(t *RangeSet) (*RangeSet, error) {
	if s.depth != t.depth {
		return nil, fmt.Errorf("htm: union of range sets at depths %d and %d", s.depth, t.depth)
	}
	u := NewRangeSet(s.depth)
	u.ranges = make([]Range, 0, len(s.ranges)+len(t.ranges))
	u.ranges = append(u.ranges, s.ranges...)
	u.ranges = append(u.ranges, t.ranges...)
	u.normalize()
	return u, nil
}

// Intersect returns the set intersection of two range sets at the same depth.
func (s *RangeSet) Intersect(t *RangeSet) (*RangeSet, error) {
	if s.depth != t.depth {
		return nil, fmt.Errorf("htm: intersect of range sets at depths %d and %d", s.depth, t.depth)
	}
	u := NewRangeSet(s.depth)
	i, j := 0, 0
	for i < len(s.ranges) && j < len(t.ranges) {
		a, b := s.ranges[i], t.ranges[j]
		lo, hi := max(a.Lo, b.Lo), min(a.Hi, b.Hi)
		if lo <= hi {
			u.ranges = append(u.ranges, Range{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return u, nil
}

// String renders the set compactly for logs and tests.
func (s *RangeSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "depth%d{", s.depth)
	for i, r := range s.ranges {
		if i > 0 {
			b.WriteString(", ")
		}
		if r.Lo == r.Hi {
			fmt.Fprintf(&b, "%d", uint64(r.Lo))
		} else {
			fmt.Fprintf(&b, "%d-%d", uint64(r.Lo), uint64(r.Hi))
		}
	}
	b.WriteString("}")
	return b.String()
}
