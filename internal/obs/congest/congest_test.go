package congest

import (
	"encoding/json"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

func uniformGrid(t *testing.T, n int) *grid.Grid {
	t.Helper()
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i * 2
	}
	g, err := grid.New(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSeriesSamples(t *testing.T) {
	g := uniformGrid(t, 16) // 16x16 tracks => 2x2 tiles at win 8
	s := New(8, 5000)
	s.NetCommitted(1, "a", false, g)
	g.CommitHWire(3, geom.Iv(0, 15)) // 16 blocked points, all in the bottom tile row
	s.NetCommitted(2, "b", false, g)
	rep := s.Report(true)
	if rep.Cols != 2 || rep.Rows != 2 || rep.Win != 8 {
		t.Fatalf("tiling = %dx%d win %d", rep.Cols, rep.Rows, rep.Win)
	}
	if len(rep.Samples) != 2 || len(rep.Frames) != 2 {
		t.Fatalf("%d samples, %d frames", len(rep.Samples), len(rep.Frames))
	}
	empty := rep.Samples[0]
	if empty.UtilHBP != 0 || empty.UtilVBP != 0 || empty.PeakBP != 0 || empty.Overflow != 0 {
		t.Fatalf("empty-grid sample = %+v", empty)
	}
	after := rep.Samples[1]
	// 16 H points blocked out of 256 per layer: 625 bp on H, 0 on V.
	if after.UtilHBP != 625 || after.UtilVBP != 0 {
		t.Fatalf("utilisation = %d/%d bp, want 625/0", after.UtilHBP, after.UtilVBP)
	}
	// Each bottom tile: 8 of its 128 (point, layer) slots blocked = 625 bp.
	if after.PeakBP != 625 || after.PeakRow != 0 {
		t.Fatalf("peak = %d bp at row %d, want 625 at row 0", after.PeakBP, after.PeakRow)
	}
	if after.Overflow != 0 {
		t.Fatalf("overflow tiles = %d, want 0", after.Overflow)
	}
	if f := rep.Frames[1]; f[0] != 625 || f[1] != 625 || f[2] != 0 || f[3] != 0 {
		t.Fatalf("frame = %v", f)
	}
}

func TestOverflowThreshold(t *testing.T) {
	g := uniformGrid(t, 8) // one tile
	s := New(8, 2000)
	for r := 0; r < 2; r++ {
		g.BlockH(r, geom.Iv(0, 7))
	}
	// 16 of 128 slots = 1250 bp: below threshold.
	s.NetCommitted(1, "a", false, g)
	for r := 2; r < 4; r++ {
		g.BlockH(r, geom.Iv(0, 7))
	}
	// 32 of 128 = 2500 bp: over.
	s.NetCommitted(2, "b", true, g)
	rep := s.Report(false)
	if rep.Samples[0].Overflow != 0 || rep.Samples[1].Overflow != 1 {
		t.Fatalf("overflow per sample = %d, %d; want 0, 1",
			rep.Samples[0].Overflow, rep.Samples[1].Overflow)
	}
	if !rep.Samples[1].Failed {
		t.Fatal("failed flag not recorded")
	}
	if rep.Frames != nil {
		t.Fatal("Report(false) carried frames")
	}
	if last, ok := s.Last(); !ok || last.Rank != 2 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestReportJSONStable(t *testing.T) {
	g := uniformGrid(t, 8)
	s := New(0, 0)
	g.BlockV(1, geom.Iv(0, 3))
	s.NetCommitted(1, "n1", false, g)
	a, err := json.Marshal(s.Report(true))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(s.Report(true))
	if string(a) != string(b) {
		t.Fatal("repeated Report marshals differ")
	}
	var rt Report
	if err := json.Unmarshal(a, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Win != DefaultWin || rt.OverflowBP != DefaultOverflowBP {
		t.Fatalf("defaults did not round-trip: %+v", rt)
	}
}

// TestTile covers the tiling itself: whole and ragged tilings of a
// grid whose left half is fully blocked, and the hottest-tile
// tie-break.
func TestTile(t *testing.T) {
	leftHalf := func(n int) *grid.Grid {
		xs := make([]int, 2*n)
		for i := range xs {
			xs[i] = i * 2
		}
		g, err := grid.New(xs, xs[:n])
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			g.BlockH(r, geom.Iv(0, n-1))
		}
		for c := 0; c < n; c++ {
			g.BlockV(c, geom.Iv(0, n-1))
		}
		return g
	}
	f := Tile(leftHalf(16), 8) // 32x16 tracks
	if f.Win != 8 || f.Cols != 4 || f.Rows != 2 || len(f.BP) != 8 {
		t.Fatalf("tiling = %dx%d win %d, %d tiles; want 4x2 win 8", f.Cols, f.Rows, f.Win, len(f.BP))
	}
	want := []int{10000, 10000, 0, 0, 10000, 10000, 0, 0}
	for i, bp := range f.BP {
		if bp != want[i] {
			t.Fatalf("frame = %v, want %v", f.BP, want)
		}
	}
	// Four tiles tie at 10000 bp: the lowest row, then column, wins.
	if f.PeakBP != 10000 || f.PeakCol != 0 || f.PeakRow != 0 {
		t.Fatalf("hottest = (%d,%d) %d bp, want (0,0) 10000", f.PeakCol, f.PeakRow, f.PeakBP)
	}

	// Ragged edge: a window that does not divide the track count.
	f = Tile(uniformGrid(t, 10), 8)
	if f.Cols != 2 || f.Rows != 2 || len(f.BP) != 4 || f.PeakBP != 0 {
		t.Fatalf("ragged tiling = %dx%d, %d tiles, peak %d bp", f.Cols, f.Rows, len(f.BP), f.PeakBP)
	}
	if f = Tile(uniformGrid(t, 10), 0); f.Win != DefaultWin {
		t.Fatalf("win 0 tiled at %d, want DefaultWin", f.Win)
	}

	// A one-frame report carries exactly this frame.
	rep := f.Report()
	if rep.Cols != f.Cols || rep.Rows != f.Rows || len(rep.Frames) != 1 || len(rep.Frames[0]) != 4 {
		t.Fatalf("one-frame report = %+v", rep)
	}
}
