package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Iv(3, 7)
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	if iv.Len() != 5 {
		t.Errorf("Len = %d, want 5", iv.Len())
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Error("Contains boundary behaviour wrong")
	}
	if !Iv(5, 4).Empty() || Iv(5, 4).Len() != 0 {
		t.Error("empty interval behaviour wrong")
	}
	if !Iv(1, 3).Overlaps(Iv(3, 5)) {
		t.Error("touching closed intervals must overlap")
	}
	if Iv(1, 3).Overlaps(Iv(4, 5)) {
		t.Error("disjoint intervals reported overlapping")
	}
	if got := Iv(1, 5).Intersect(Iv(3, 9)); got != Iv(3, 5) {
		t.Errorf("Intersect = %v", got)
	}
}

func TestIntervalSetAddMerges(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(1, 3))
	s.Add(Iv(7, 9))
	s.Add(Iv(4, 6)) // adjacent on both sides: everything merges
	if s.Len() != 1 {
		t.Fatalf("expected single merged interval, got %v", s.String())
	}
	if got := s.Intervals()[0]; got != Iv(1, 9) {
		t.Errorf("merged = %v, want [1,9]", got)
	}
}

func TestIntervalSetAddOverlap(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(10, 20))
	s.Add(Iv(15, 25))
	s.Add(Iv(5, 12))
	if s.Len() != 1 || s.Intervals()[0] != Iv(5, 25) {
		t.Errorf("got %v, want {[5,25]}", s.String())
	}
	if s.Count() != 21 {
		t.Errorf("Count = %d, want 21", s.Count())
	}
}

func TestIntervalSetAddDisjoint(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(1, 2))
	s.Add(Iv(10, 12))
	s.Add(Iv(5, 7))
	want := []Interval{{1, 2}, {5, 7}, {10, 12}}
	got := s.Intervals()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIntervalSetRemoveSplits(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(0, 10))
	s.Remove(Iv(4, 6))
	got := s.Intervals()
	if len(got) != 2 || got[0] != Iv(0, 3) || got[1] != Iv(7, 10) {
		t.Errorf("after split remove: %v", s.String())
	}
	s.Remove(Iv(0, 100))
	if !s.Empty() {
		t.Errorf("expected empty, got %v", s.String())
	}
}

func TestIntervalSetRemoveEdges(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(5, 10))
	s.Remove(Iv(0, 5))
	if got := s.Intervals(); len(got) != 1 || got[0] != Iv(6, 10) {
		t.Errorf("left trim: %v", s.String())
	}
	s.Remove(Iv(10, 20))
	if got := s.Intervals(); len(got) != 1 || got[0] != Iv(6, 9) {
		t.Errorf("right trim: %v", s.String())
	}
	s.Remove(Iv(100, 200)) // no-op
	if got := s.Intervals(); len(got) != 1 || got[0] != Iv(6, 9) {
		t.Errorf("no-op remove changed set: %v", s.String())
	}
}

func TestIntervalSetContainsQueries(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(2, 4))
	s.Add(Iv(8, 9))
	if !s.Contains(2) || !s.Contains(4) || s.Contains(5) || s.Contains(1) {
		t.Error("Contains wrong")
	}
	if !s.ContainsAll(Iv(2, 4)) || s.ContainsAll(Iv(2, 5)) || s.ContainsAll(Iv(4, 8)) {
		t.Error("ContainsAll wrong")
	}
	if !s.Overlaps(Iv(4, 8)) || s.Overlaps(Iv(5, 7)) || !s.Overlaps(Iv(0, 2)) {
		t.Error("Overlaps wrong")
	}
	if got := s.OverlapCount(Iv(3, 8)); got != 3 {
		t.Errorf("OverlapCount = %d, want 3 (3,4,8)", got)
	}
}

func TestClearSpanAround(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(2, 4))
	s.Add(Iv(10, 12))
	bounds := Iv(0, 20)

	if iv, ok := s.ClearSpanAround(7, bounds); !ok || iv != Iv(5, 9) {
		t.Errorf("ClearSpanAround(7) = %v,%v; want [5,9],true", iv, ok)
	}
	if iv, ok := s.ClearSpanAround(0, bounds); !ok || iv != Iv(0, 1) {
		t.Errorf("ClearSpanAround(0) = %v,%v; want [0,1],true", iv, ok)
	}
	if iv, ok := s.ClearSpanAround(15, bounds); !ok || iv != Iv(13, 20) {
		t.Errorf("ClearSpanAround(15) = %v,%v; want [13,20],true", iv, ok)
	}
	if _, ok := s.ClearSpanAround(3, bounds); ok {
		t.Error("ClearSpanAround on occupied point must fail")
	}
	if _, ok := s.ClearSpanAround(30, bounds); ok {
		t.Error("ClearSpanAround outside bounds must fail")
	}
	// Empty set: whole bounds clear.
	var e IntervalSet
	if iv, ok := e.ClearSpanAround(5, bounds); !ok || iv != bounds {
		t.Errorf("empty-set ClearSpanAround = %v,%v", iv, ok)
	}
}

func TestComplement(t *testing.T) {
	var s IntervalSet
	s.Add(Iv(2, 4))
	s.Add(Iv(8, 9))
	got := s.Complement(Iv(0, 12))
	want := []Interval{{0, 1}, {5, 7}, {10, 12}}
	if len(got) != len(want) {
		t.Fatalf("Complement = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Complement[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if c := s.Complement(Iv(3, 3)); len(c) != 0 {
		t.Errorf("Complement inside blocked span = %v, want empty", c)
	}
	var e IntervalSet
	if c := e.Complement(Iv(5, 4)); c != nil {
		t.Errorf("Complement of empty bounds = %v, want nil", c)
	}
}

// reference model: a plain boolean array over a small universe.
type refSet [64]bool

func (r *refSet) apply(add bool, iv Interval) {
	for x := Max(iv.Lo, 0); x <= Min(iv.Hi, 63); x++ {
		r[x] = add
	}
}

// TestIntervalSetAgainstModel drives random Add/Remove sequences and
// checks every membership and count query against the boolean-array
// reference model.
func TestIntervalSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var s IntervalSet
		var ref refSet
		for op := 0; op < 30; op++ {
			lo := rng.Intn(55)
			hi := lo + rng.Intn(8)
			iv := Iv(lo, hi)
			if rng.Intn(3) == 0 {
				s.Remove(iv)
				ref.apply(false, iv)
			} else {
				s.Add(iv)
				ref.apply(true, iv)
			}
		}
		count := 0
		for x := 0; x < 64; x++ {
			if ref[x] {
				count++
			}
			if s.Contains(x) != ref[x] {
				t.Fatalf("trial %d: Contains(%d) = %v, ref %v, set %v",
					trial, x, s.Contains(x), ref[x], s.String())
			}
		}
		if s.Count() != count {
			t.Fatalf("trial %d: Count = %d, ref %d", trial, s.Count(), count)
		}
		// Invariant: intervals sorted, disjoint, non-adjacent.
		ivs := s.Intervals()
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Lo <= ivs[i-1].Hi+1 {
				t.Fatalf("trial %d: intervals not normalised: %v", trial, s.String())
			}
		}
	}
}

func TestOverlapCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s IntervalSet
		var ref refSet
		for op := 0; op < 20; op++ {
			lo := rng.Intn(50)
			iv := Iv(lo, lo+rng.Intn(10))
			s.Add(iv)
			ref.apply(true, iv)
		}
		qlo := rng.Intn(60)
		q := Iv(qlo, qlo+rng.Intn(10))
		want := 0
		for x := q.Lo; x <= Min(q.Hi, 63); x++ {
			if ref[x] {
				want++
			}
		}
		return s.OverlapCount(q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
