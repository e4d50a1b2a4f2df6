package geom

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is a closed integer interval [Lo, Hi]. An Interval with
// Lo > Hi is empty.
type Interval struct {
	Lo, Hi int
}

// Iv is shorthand for Interval{lo, hi}.
func Iv(lo, hi int) Interval { return Interval{lo, hi} }

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Len returns the number of integers in the interval (0 when empty).
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x int) bool { return x >= iv.Lo && x <= iv.Hi }

// Overlaps reports whether the two closed intervals share an integer.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the common sub-interval (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Max(iv.Lo, o.Lo), Min(iv.Hi, o.Hi)}
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// IntervalSet maintains a set of integers as sorted, disjoint,
// non-adjacent closed intervals. The zero value is an empty set ready
// to use. IntervalSet is the occupancy primitive for routing tracks:
// blocked spans are added as intervals and clearance queries ask
// whether a span is free or how far a free span extends.
type IntervalSet struct {
	ivs []Interval // sorted by Lo; disjoint; gaps of at least one integer between them
}

// Len returns the number of maximal intervals in the set.
func (s *IntervalSet) Len() int { return len(s.ivs) }

// Empty reports whether the set contains no integers.
func (s *IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Count returns the total number of integers in the set.
func (s *IntervalSet) Count() int {
	n := 0
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Intervals returns a copy of the maximal intervals in ascending order.
func (s *IntervalSet) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// String implements fmt.Stringer.
func (s *IntervalSet) String() string {
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// search returns the index of the first interval with Hi >= x.
func (s *IntervalSet) search(x int) int {
	return sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= x })
}

// Add inserts the closed interval iv, merging with any intervals it
// touches or overlaps. Empty intervals are ignored.
func (s *IntervalSet) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find all intervals that overlap or are adjacent to iv
	// (adjacent means touching at distance 1, since the set holds
	// integers: [1,2] and [3,4] merge to [1,4]).
	first := s.search(iv.Lo - 1)
	last := first
	lo, hi := iv.Lo, iv.Hi
	for last < len(s.ivs) && s.ivs[last].Lo <= iv.Hi+1 {
		lo = Min(lo, s.ivs[last].Lo)
		hi = Max(hi, s.ivs[last].Hi)
		last++
	}
	if first == last {
		// Pure insertion: shift the tail right by one in place. The
		// append only allocates when the backing array is full, so
		// steady-state Adds on a reused set are allocation-free.
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[first+1:], s.ivs[first:])
		s.ivs[first] = Interval{lo, hi}
		return
	}
	// Merge: the absorbed intervals [first,last) collapse into one.
	s.ivs[first] = Interval{lo, hi}
	if last > first+1 {
		s.ivs = append(s.ivs[:first+1], s.ivs[last:]...)
	}
}

// AddPoint inserts the single integer x.
func (s *IntervalSet) AddPoint(x int) { s.Add(Interval{x, x}) }

// Remove deletes every integer of iv from the set, splitting intervals
// as needed.
func (s *IntervalSet) Remove(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	first := s.search(iv.Lo)
	last := first
	// At most two fragments survive the cut: a left remainder of the
	// first affected interval and a right remainder of the last.
	var left, right Interval
	hasLeft, hasRight := false, false
	for ; last < len(s.ivs) && s.ivs[last].Lo <= iv.Hi; last++ {
		cur := s.ivs[last]
		if cur.Lo < iv.Lo {
			left = Interval{cur.Lo, iv.Lo - 1}
			hasLeft = true
		}
		if cur.Hi > iv.Hi {
			right = Interval{iv.Hi + 1, cur.Hi}
			hasRight = true
		}
	}
	if first == last {
		return
	}
	frags := 0
	if hasLeft {
		frags++
	}
	if hasRight {
		frags++
	}
	switch removed := last - first; {
	case frags > removed:
		// Split of a single interval into two: grow by one slot and
		// shift the tail right (allocates only on capacity growth).
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[last+1:], s.ivs[last:])
	case frags < removed:
		// Net shrink: slide the tail left over the freed slots.
		s.ivs = append(s.ivs[:first+frags], s.ivs[last:]...)
	}
	if hasLeft {
		s.ivs[first] = left
		first++
	}
	if hasRight {
		s.ivs[first] = right
	}
}

// Contains reports whether x is in the set.
func (s *IntervalSet) Contains(x int) bool {
	i := s.search(x)
	return i < len(s.ivs) && s.ivs[i].Lo <= x
}

// ContainsAll reports whether every integer of iv is in the set.
// An empty iv is trivially contained.
func (s *IntervalSet) ContainsAll(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	i := s.search(iv.Lo)
	return i < len(s.ivs) && s.ivs[i].Lo <= iv.Lo && s.ivs[i].Hi >= iv.Hi
}

// Overlaps reports whether any integer of iv is in the set.
func (s *IntervalSet) Overlaps(iv Interval) bool {
	if iv.Empty() {
		return false
	}
	i := s.search(iv.Lo)
	return i < len(s.ivs) && s.ivs[i].Lo <= iv.Hi
}

// OverlapCount returns how many integers of iv are in the set.
func (s *IntervalSet) OverlapCount(iv Interval) int {
	if iv.Empty() {
		return 0
	}
	n := 0
	for i := s.search(iv.Lo); i < len(s.ivs) && s.ivs[i].Lo <= iv.Hi; i++ {
		n += s.ivs[i].Intersect(iv).Len()
	}
	return n
}

// ClearSpanAround returns the maximal interval of integers not in the
// set that contains x, clipped to bounds. The second result is false
// when x itself is in the set (no clear span exists around it) or x is
// outside bounds.
func (s *IntervalSet) ClearSpanAround(x int, bounds Interval) (Interval, bool) {
	if !bounds.Contains(x) || s.Contains(x) {
		return Interval{}, false
	}
	lo, hi := bounds.Lo, bounds.Hi
	i := s.search(x)
	// s.ivs[i] is the first interval ending at or after x; since x is
	// not contained, either i == len or s.ivs[i].Lo > x.
	if i < len(s.ivs) && s.ivs[i].Lo <= bounds.Hi {
		hi = Min(hi, s.ivs[i].Lo-1)
	}
	if i > 0 {
		lo = Max(lo, s.ivs[i-1].Hi+1)
	}
	return Interval{lo, hi}, true
}

// Complement returns the maximal clear (not-in-set) intervals within
// bounds, in ascending order.
func (s *IntervalSet) Complement(bounds Interval) []Interval {
	if bounds.Empty() {
		return nil
	}
	var out []Interval
	cur := bounds.Lo
	for i := s.search(bounds.Lo); i < len(s.ivs) && s.ivs[i].Lo <= bounds.Hi; i++ {
		if s.ivs[i].Lo > cur {
			out = append(out, Interval{cur, s.ivs[i].Lo - 1})
		}
		cur = Max(cur, s.ivs[i].Hi+1)
	}
	if cur <= bounds.Hi {
		out = append(out, Interval{cur, bounds.Hi})
	}
	return out
}
