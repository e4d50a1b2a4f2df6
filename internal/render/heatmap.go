package render

import (
	"fmt"
	"strings"

	"overcell/internal/obs/congest"
)

// heatRamp maps occupancy fractions to ASCII shades, coldest to
// hottest.
const heatRamp = " .:-=+*#%@"

// HeatmapASCII renders a congestion frame one character per tile, top
// row first (matching GridASCII orientation), with a legend line.
func HeatmapASCII(f congest.Frame) string {
	var b strings.Builder
	fmt.Fprintf(&b, "congestion heatmap %dx%d tiles, %d tracks/tile, max=%.2f (ramp \"%s\" = 0..1)\n",
		f.Cols, f.Rows, f.Win, float64(f.PeakBP)/10000, heatRamp)
	for r := f.Rows - 1; r >= 0; r-- {
		for c := 0; c < f.Cols; c++ {
			i := min(f.BP[r*f.Cols+c]*len(heatRamp)/10000, len(heatRamp)-1)
			b.WriteByte(heatRamp[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
