package grid

import (
	"math/rand"
	"testing"

	"overcell/internal/geom"
)

// mirrorSizes straddle the 64-bit word boundary of the blockage
// bitmaps in both directions.
var mirrorSizes = []int{1, 63, 64, 65, 130}

// mirrorOp applies one occupancy mutator chosen by code, with
// operands a, b, c reduced to spans and points that may reach past
// the grid edges (the interval sets accept those; the bitmaps must
// clip them).
func mirrorOp(g *Grid, code, a, b, c byte) {
	nx, ny := g.NX(), g.NY()
	col, row := int(a)%nx, int(b)%ny
	span := func(n int) geom.Interval {
		lo := int(b)%(n+4) - 2
		return geom.Iv(lo, lo+int(c)%70)
	}
	switch code % 15 {
	case 0:
		g.BlockH(row, span(nx))
	case 1:
		g.UnblockH(row, span(nx))
	case 2:
		g.BlockV(col, span(ny))
	case 3:
		g.UnblockV(col, span(ny))
	case 4:
		g.BlockPoint(col, row)
	case 5:
		g.UnblockPoint(col, row)
	case 6:
		// Uniform pitch 1: layout coordinates are track indices.
		x0, y0 := int(a)%(nx+4)-2, int(b)%(ny+4)-2
		g.BlockRect(geom.R(x0, y0, x0+int(c)%40, y0+int(c>>2)%40), Mask(1+int(c)%3))
	case 7:
		g.CommitHWire(row, span(nx))
	case 8:
		g.CommitVWire(col, span(ny))
	case 9:
		g.CommitVia(col, row)
	case 10:
		g.LiftHWire(row, span(nx))
	case 11:
		g.LiftVWire(col, span(ny))
	case 12:
		g.LiftVia(col, row)
	case 13:
		g.MarkTerminal(col, row)
	case 14:
		g.ClearTerminal(col, row)
	}
}

// checkMirror asserts that the transposed bitmaps, the interval sets
// and PointFree agree at every grid point.
func checkMirror(t *testing.T, g *Grid, ctx string) {
	t.Helper()
	for col := 0; col < g.NX(); col++ {
		hcol := g.HBlockedCol(col)
		for row := 0; row < g.NY(); row++ {
			vrow := g.VBlockedRow(row)
			hb := hcol[row>>6]&(1<<(row&63)) != 0
			vb := vrow[col>>6]&(1<<(col&63)) != 0
			if want := g.blockH[row].Contains(col); hb != want {
				t.Fatalf("%s: H bit (%d,%d) = %v, interval set %v", ctx, col, row, hb, want)
			}
			if want := g.blockV[col].Contains(row); vb != want {
				t.Fatalf("%s: V bit (%d,%d) = %v, interval set %v", ctx, col, row, vb, want)
			}
			if g.PointFree(col, row) != (!hb && !vb) {
				t.Fatalf("%s: PointFree(%d,%d) = %v with H %v V %v", ctx, col, row, g.PointFree(col, row), hb, vb)
			}
		}
	}
	// Bits past the last track stay clear, so word-wise readers can
	// treat them as free without masking by grid size.
	for col := 0; col < g.NX(); col++ {
		if w := g.HBlockedCol(col); g.NY()&63 != 0 && w[len(w)-1]>>(g.NY()&63) != 0 {
			t.Fatalf("%s: column %d has bits past row %d", ctx, col, g.NY()-1)
		}
	}
	for row := 0; row < g.NY(); row++ {
		if w := g.VBlockedRow(row); g.NX()&63 != 0 && w[len(w)-1]>>(g.NX()&63) != 0 {
			t.Fatalf("%s: row %d has bits past column %d", ctx, row, g.NX()-1)
		}
	}
}

// TestBlockBitmapsMirrorIntervalSets runs random sequences of every
// occupancy mutator and checks after each one that the transposed
// blockage bitmaps equal the per-track interval sets.
func TestBlockBitmapsMirrorIntervalSets(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, nx := range mirrorSizes {
		for _, ny := range mirrorSizes {
			g := mustUniform(t, nx, ny, 1)
			checkMirror(t, g, "new grid")
			for step := 0; step < 60; step++ {
				code := byte(rng.Intn(15))
				mirrorOp(g, code, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				checkMirror(t, g, "op")
			}
		}
	}
}

// FuzzGridBlockMirror is the fuzzing form of the mirror check: the
// first two bytes pick the grid size, every following four bytes one
// mutator and its operands. Run deep fuzzing with:
//
//	go test -fuzz=FuzzGridBlockMirror ./internal/grid
func FuzzGridBlockMirror(f *testing.F) {
	f.Add([]byte{3, 4, 0, 10, 20, 30, 13, 5, 5, 0, 6, 0, 0, 200})
	f.Add([]byte{2, 2, 7, 63, 1, 69, 10, 63, 3, 5, 9, 64, 64, 0, 12, 64, 64, 0})
	f.Add([]byte{0, 1, 6, 0, 0, 255, 3, 0, 0, 70, 1, 0, 65, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		nx := mirrorSizes[int(ops[0])%len(mirrorSizes)]
		ny := mirrorSizes[int(ops[1])%len(mirrorSizes)]
		g := mustUniform(t, nx, ny, 1)
		for i := 2; i+3 < len(ops); i += 4 {
			mirrorOp(g, ops[i], ops[i+1], ops[i+2], ops[i+3])
			checkMirror(t, g, "op")
		}
	})
}
