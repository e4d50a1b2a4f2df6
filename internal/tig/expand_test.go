package tig

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

// spanProbeSearch is the reference MBFS: the level loop of Search with
// expand replaced by spanProbeExpand, which asks the surface about one
// crossing at a time through HClearSpan/VClearSpan. It is the
// per-crossing formulation the word-parallel expand must reproduce
// exactly, kept here as a differential oracle.
func spanProbeSearch(st *Searcher, s Surface, from, to Point, cfg Config) (*Result, bool) {
	cb := cfg.ColBounds
	rb := cfg.RowBounds
	if cb == (geom.Interval{}) && rb == (geom.Interval{}) {
		cb = geom.Iv(0, s.NX()-1)
		rb = geom.Iv(0, s.NY()-1)
	}
	cb = cb.Intersect(geom.Iv(0, s.NX()-1))
	rb = rb.Intersect(geom.Iv(0, s.NY()-1))
	if !cb.Contains(from.Col) || !cb.Contains(to.Col) ||
		!rb.Contains(from.Row) || !rb.Contains(to.Row) {
		return nil, false
	}
	st.prepare(s.NX(), s.NY())
	st.s, st.to, st.cb, st.rb = s, to, cb, rb
	st.relaxed = cfg.RelaxedVisit
	st.maxPaths = DefaultMaxPaths
	st.budget = nil
	if cfg.Starts == StartBoth || cfg.Starts == StartVertical {
		st.roots = append(st.roots, st.arena.alloc(Track{Vertical: true, Index: from.Col}, from.Row, 0, nil))
	}
	if cfg.Starts == StartBoth || cfg.Starts == StartHorizontal {
		st.roots = append(st.roots, st.arena.alloc(Track{Vertical: false, Index: from.Row}, from.Col, 0, nil))
	}
	for _, root := range st.roots {
		st.mark(root.Track, 0)
	}
	st.frontier = append(st.frontier[:0], st.roots...)
	res := &Result{Trees: st.roots}
	for level := 0; len(st.frontier) > 0 && level <= DefaultMaxCorners; level++ {
		res.Levels = level
		st.done = st.done[:0]
		for _, n := range st.frontier {
			if p, ok := st.complete(n, from); ok {
				st.done = append(st.done, p)
				if len(st.done) >= st.maxPaths {
					break
				}
			}
		}
		if len(st.done) > 0 {
			res.Paths = st.done
			res.Corners = st.done[0].Corners()
			res.Expanded, res.Pruned = st.expanded, st.pruned
			return res, true
		}
		st.next = st.next[:0]
		for _, n := range st.frontier {
			spanProbeExpand(st, n)
		}
		st.frontier, st.next = st.next, st.frontier
	}
	res.Expanded, res.Pruned = st.expanded, st.pruned
	return res, false
}

// spanProbeExpand probes every crossing of n's clear span with a
// clear-span query on the crossing track: usable exactly when the
// crossing point is clear on that track's layer.
func spanProbeExpand(st *Searcher, n *Node) {
	span, ok := st.span(n)
	if !ok {
		return
	}
	for q := span.Lo; q <= span.Hi; q++ {
		if q == n.Entry {
			continue
		}
		var child Track
		var usable bool
		entry := n.Track.Index
		if n.Track.Vertical {
			child = Track{Vertical: false, Index: q}
			_, usable = st.s.HClearSpan(q, entry, st.cb)
		} else {
			child = Track{Vertical: true, Index: q}
			_, usable = st.s.VClearSpan(q, entry, st.rb)
		}
		if !usable || !st.admit(child, n.Level+1) {
			continue
		}
		c := st.arena.alloc(child, entry, n.Level+1, n)
		n.Children = append(n.Children, c)
		st.next = append(st.next, c)
		st.expanded++
	}
}

// obstructedGrid returns an nx-by-ny grid with random one- and
// two-layer rectangular obstacles, committed wires and terminals.
func obstructedGrid(t *testing.T, rng *rand.Rand, nx, ny int) *grid.Grid {
	t.Helper()
	g := freshGrid(t, nx, ny)
	for k := 0; k < nx*ny/150; k++ {
		x, y := rng.Intn(nx), rng.Intn(ny)
		g.BlockRect(geom.R(x, y, x+rng.Intn(6), y+rng.Intn(6)), grid.Mask(1+rng.Intn(3)))
	}
	for k := 0; k < (nx+ny)/2; k++ {
		lo := rng.Intn(nx)
		g.CommitHWire(rng.Intn(ny), geom.Iv(lo, lo+rng.Intn(30)))
		lo = rng.Intn(ny)
		g.CommitVWire(rng.Intn(nx), geom.Iv(lo, lo+rng.Intn(30)))
	}
	for k := 0; k < (nx+ny)/4; k++ {
		g.MarkTerminal(rng.Intn(nx), rng.Intn(ny))
	}
	return g
}

// midWord returns a random window [lo, hi] inside [0, n-1] containing
// a and b whose ends fall inside a 64-bit word, not on its edges, when
// there is room for that.
func midWord(rng *rand.Rand, n, a, b int) geom.Interval {
	lo, hi := geom.Min(a, b), geom.Max(a, b)
	lo = geom.Max(0, lo-rng.Intn(40))
	hi = geom.Min(n-1, hi+rng.Intn(40))
	if lo%64 == 0 && lo < a && lo < b {
		lo++
	}
	if hi%64 == 63 && hi > a && hi > b {
		hi--
	}
	return geom.Iv(lo, hi)
}

// TestExpandMatchesSpanProbe runs the word-parallel search and the
// per-crossing reference on the same random obstructed grids, wider
// and taller than one bitmap word, and requires identical paths,
// corner counts, expansion and prune counts, and levels — under the
// strict and relaxed visit rules, from each start choice, over the
// full surface and over bounded windows that begin and end mid-word.
func TestExpandMatchesSpanProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var fast, ref Searcher
	searches, found := 0, 0
	for trial := 0; trial < 12; trial++ {
		nx, ny := 65+rng.Intn(90), 65+rng.Intn(90)
		g := obstructedGrid(t, rng, nx, ny)
		for pair := 0; pair < 15; pair++ {
			from := Point{rng.Intn(nx), rng.Intn(ny)}
			to := Point{rng.Intn(nx), rng.Intn(ny)}
			if from == to || !g.PointFree(from.Col, from.Row) || !g.PointFree(to.Col, to.Row) {
				continue
			}
			windows := []Config{
				{},
				{ColBounds: midWord(rng, nx, from.Col, to.Col), RowBounds: midWord(rng, ny, from.Row, to.Row)},
				// The terminals' bounding box: tight enough that some
				// searches exhaust the window.
				{ColBounds: geom.Iv(geom.Min(from.Col, to.Col), geom.Max(from.Col, to.Col)),
					RowBounds: geom.Iv(geom.Min(from.Row, to.Row), geom.Max(from.Row, to.Row))},
			}
			for wi, win := range windows {
				for _, relaxed := range []bool{false, true} {
					for _, starts := range []Starts{StartBoth, StartVertical, StartHorizontal} {
						cfg := win
						cfg.RelaxedVisit, cfg.Starts = relaxed, starts
						name := fmt.Sprintf("trial %d %dx%d %v->%v window %d relaxed %v starts %d",
							trial, nx, ny, from, to, wi, relaxed, starts)
						got, gotOK := fast.Search(g, from, to, cfg)
						want, wantOK := spanProbeSearch(&ref, g, from, to, cfg)
						searches++
						if wantOK {
							found++
						}
						compareResults(t, name, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
	// The comparison only means something if both outcomes occur.
	if searches < 500 || found == 0 || found == searches {
		t.Fatalf("weak coverage: %d searches, %d found", searches, found)
	}
}

func compareResults(t *testing.T, name string, got *Result, gotOK bool, want *Result, wantOK bool) {
	t.Helper()
	if gotOK != wantOK {
		t.Fatalf("%s: found %v, reference %v", name, gotOK, wantOK)
	}
	if want == nil || got == nil {
		if (want == nil) != (got == nil) {
			t.Fatalf("%s: result %v, reference %v", name, got, want)
		}
		return
	}
	if got.Corners != want.Corners || got.Expanded != want.Expanded ||
		got.Pruned != want.Pruned || got.Levels != want.Levels {
		t.Fatalf("%s: corners/expanded/pruned/levels = %d/%d/%d/%d, reference %d/%d/%d/%d", name,
			got.Corners, got.Expanded, got.Pruned, got.Levels,
			want.Corners, want.Expanded, want.Pruned, want.Levels)
	}
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("%s: paths differ\n got %v\nwant %v", name, got.Paths, want.Paths)
	}
}
