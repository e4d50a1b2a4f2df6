package render

import (
	"fmt"
	"io"

	"overcell/internal/obs/congest"
)

// maxAnimFrames bounds the animated SVG's frame count: longer series
// are strided down (deterministically) so the document stays a few
// hundred KB even for thousand-net runs. The final frame is always
// kept — it is the finished routing's congestion picture.
const maxAnimFrames = 64

// heatColor maps an occupancy fraction to the heatmap ramp: white
// (free) through yellow to red (fully occupied).
func heatColor(occ float64) (r, g, b int) {
	if occ <= 0 {
		return 255, 255, 255
	}
	if occ < 0.5 {
		r, g = 255, 255
	} else {
		r, g = 255, int(255*(1-occ)*2)
	}
	b = int(255 * (1 - min(occ*2, 1)))
	return r, g, b
}

// CongestionSVG draws a congestion time-series as a heatmap: white
// (free) through yellow to red (fully occupied), bottom row at the
// bottom. A tile that changes across the report's frames is one
// SMIL-animated rect cycling through them, and a progress bar tracks
// the commit index; a tile that never changes is one plain rect with
// a tooltip naming it and its occupancy. A one-frame report (a
// congest.Frame's) is therefore a static heatmap. Reports without
// frames render a single static placeholder.
func CongestionSVG(w io.Writer, rep *congest.Report) error {
	const tile = 12
	frames := strideFrames(rep.Frames)
	if len(frames) == 0 || rep.Cols == 0 || rep.Rows == 0 {
		_, err := fmt.Fprint(w,
			`<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 240 24">`+
				`<text x="4" y="16" font-size="12">no congestion samples</text></svg>`+"\n")
		return err
	}
	animated := len(frames) > 1
	width, height := rep.Cols*tile, rep.Rows*tile
	if animated {
		height += 4 // progress bar
	}
	// 4 frames per second, looping.
	dur := float64(len(frames)) * 0.25
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">`+"\n", width, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	for r := 0; r < rep.Rows; r++ {
		for c := 0; c < rep.Cols; c++ {
			idx := r*rep.Cols + c
			static := true
			for _, f := range frames[1:] {
				if f[idx] != frames[0][idx] {
					static = false
					break
				}
			}
			x, y := c*tile, (rep.Rows-1-r)*tile
			if static {
				// Unchanging tile (every tile of a one-frame report): one
				// plain rect, free ones left to the background.
				if frames[0][idx] == 0 {
					continue
				}
				occ := float64(frames[0][idx]) / 10000
				cr, cg, cb := heatColor(occ)
				fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,%d)"><title>tile (%d,%d) occ=%.2f</title></rect>`+"\n",
					x, y, tile, tile, cr, cg, cb, c, r, occ)
				continue
			}
			fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d"><animate attributeName="fill" dur="%.2fs" repeatCount="indefinite" calcMode="discrete" values="`,
				x, y, tile, tile, dur)
			for i, f := range frames {
				if i > 0 {
					io.WriteString(w, ";")
				}
				cr, cg, cb := heatColor(float64(f[idx]) / 10000)
				fmt.Fprintf(w, "rgb(%d,%d,%d)", cr, cg, cb)
			}
			fmt.Fprint(w, `"/></rect>`+"\n")
		}
	}
	if animated {
		// Progress bar: sweeps once per loop, left to right.
		fmt.Fprintf(w, `<rect x="0" y="%d" width="0" height="4" fill="steelblue"><animate attributeName="width" dur="%.2fs" repeatCount="indefinite" values="0;%d"/></rect>`+"\n",
			rep.Rows*tile, dur, width)
	}
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

// strideFrames downsamples to at most maxAnimFrames, always retaining
// the final frame.
func strideFrames(frames [][]int) [][]int {
	if len(frames) <= maxAnimFrames {
		return frames
	}
	stride := (len(frames) + maxAnimFrames - 1) / maxAnimFrames
	var out [][]int
	for i := 0; i < len(frames); i += stride {
		out = append(out, frames[i])
	}
	if last := frames[len(frames)-1]; len(out) == 0 || !sameFrame(out[len(out)-1], last) {
		out = append(out, last)
	}
	return out
}

func sameFrame(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
