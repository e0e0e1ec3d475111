// Package plot renders small ASCII charts for the experiment harness: the
// time-series of Fig 9 and the densities of Fig 4 read much better as
// pictures, even in a terminal.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series renders one or two aligned y-series over a shared x-axis as an
// ASCII line chart of the given width and height.
type Series struct {
	Title   string
	XLabel  string
	YLabel  string
	X       []float64
	Y       []float64
	Y2      []float64 // optional second series, drawn with 'o'
	Y2Label string
	Width   int
	Height  int
}

func minMax(xs ...[]float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range xs {
		for _, v := range s {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if lo == hi {
		hi = lo + 1
	}
	return lo, hi
}

// Render draws the chart.
func (s Series) Render(w io.Writer) {
	width, height := s.Width, s.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	if len(s.X) == 0 || len(s.X) != len(s.Y) {
		fmt.Fprintf(w, "%s: (no data)\n", s.Title)
		return
	}
	xlo, xhi := minMax(s.X)
	series := [][]float64{s.Y}
	if len(s.Y2) == len(s.Y) {
		series = append(series, s.Y2)
	}
	ylo, yhi := minMax(series...)

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	put := func(xs, ys []float64, mark byte) {
		for i := range xs {
			c := int((xs[i] - xlo) / (xhi - xlo) * float64(width-1))
			r := height - 1 - int((ys[i]-ylo)/(yhi-ylo)*float64(height-1))
			if c >= 0 && c < width && r >= 0 && r < height {
				grid[r][c] = mark
			}
		}
	}
	put(s.X, s.Y, '*')
	if len(s.Y2) == len(s.Y) {
		put(s.X, s.Y2, 'o')
	}

	if s.Title != "" {
		fmt.Fprintln(w, s.Title)
	}
	fmt.Fprintf(w, "%10.3g +%s\n", yhi, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(w, "%10s |%s\n", "", string(row))
	}
	fmt.Fprintf(w, "%10.3g +%s\n", ylo, strings.Repeat("-", width))
	fmt.Fprintf(w, "%10s  %-10.3g%s%10.3g\n", "", xlo,
		strings.Repeat(" ", max(0, width-20)), xhi)
	legend := fmt.Sprintf("* %s", s.YLabel)
	if len(s.Y2) == len(s.Y) && s.Y2Label != "" {
		legend += fmt.Sprintf("   o %s", s.Y2Label)
	}
	if s.XLabel != "" {
		legend += fmt.Sprintf("   (x: %s)", s.XLabel)
	}
	fmt.Fprintf(w, "%10s  %s\n", "", legend)
}
