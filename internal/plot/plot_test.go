package plot

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesRender(t *testing.T) {
	var buf bytes.Buffer
	s := Series{
		Title:  "ramp",
		XLabel: "t",
		YLabel: "rate",
		X:      []float64{0, 1, 2, 3, 4},
		Y:      []float64{0, 5, 10, 5, 0},
		Width:  20,
		Height: 5,
	}
	s.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "ramp") || !strings.Contains(out, "*") {
		t.Fatalf("render missing content:\n%s", out)
	}
	// 5 grid rows between the two axis lines.
	if got := strings.Count(out, "|"); got < 5 {
		t.Errorf("grid rows = %d", got)
	}
}

func TestSeriesTwoCurves(t *testing.T) {
	var buf bytes.Buffer
	s := Series{
		X:       []float64{0, 1, 2},
		Y:       []float64{0, 1, 2},
		Y2:      []float64{2, 1, 0},
		YLabel:  "up",
		Y2Label: "down",
	}
	s.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("both markers should appear")
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatal("legend incomplete")
	}
}

func TestSeriesEmpty(t *testing.T) {
	var buf bytes.Buffer
	Series{Title: "nothing"}.Render(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty series should say so")
	}
}

func TestSeriesConstant(t *testing.T) {
	// A constant series must not divide by zero.
	var buf bytes.Buffer
	Series{X: []float64{0, 1}, Y: []float64{3, 3}}.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}
