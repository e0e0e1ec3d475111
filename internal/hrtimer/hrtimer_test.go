package hrtimer

import (
	"math"
	"testing"
	"time"

	"metronome/internal/stats"
	"metronome/internal/xrand"
)

const us = 1e-6

func sampleMean(m *Model, req float64, n int) (mean, std float64) {
	var w stats.Welford
	for i := 0; i < n; i++ {
		w.Add(m.Actual(req))
	}
	return w.Mean(), w.Std()
}

// The calibration targets are the paper's Fig 1 boxplots.
func TestFig1Calibration(t *testing.T) {
	cases := []struct {
		req        float64
		hrLo, hrHi float64 // acceptable band for the mean, us
	}{
		{1 * us, 3.7, 4.0},
		{10 * us, 13.3, 13.6},
		{100 * us, 108.3, 108.7},
	}
	for _, c := range cases {
		hr := NewModel(HRSleep, xrand.New(1))
		nano := NewModel(Nanosleep, xrand.New(2))
		hm, _ := sampleMean(hr, c.req, 20000)
		nm, _ := sampleMean(nano, c.req, 20000)
		if hm*1e6 < c.hrLo || hm*1e6 > c.hrHi {
			t.Errorf("hr_sleep(%v): mean %.3f us outside [%v,%v]", c.req, hm*1e6, c.hrLo, c.hrHi)
		}
		// nanosleep is consistently slower on average...
		if nm <= hm {
			t.Errorf("nanosleep mean %.3f us not above hr_sleep %.3f us at req %v", nm*1e6, hm*1e6, c.req)
		}
		// ...but only slightly (tens of nanoseconds in the paper).
		if nm-hm > 200e-9 {
			t.Errorf("gap %.0f ns too large at req %v", (nm-hm)*1e9, c.req)
		}
	}
}

func TestNanosleepMoreVariance(t *testing.T) {
	hr := NewModel(HRSleep, xrand.New(3))
	nano := NewModel(Nanosleep, xrand.New(4))
	_, hs := sampleMean(hr, 10*us, 20000)
	_, ns := sampleMean(nano, 10*us, 20000)
	if ns <= hs {
		t.Errorf("nanosleep std %.1f ns not above hr_sleep %.1f ns", ns*1e9, hs*1e9)
	}
}

func TestPatchedFastPath(t *testing.T) {
	m := NewModel(HRSleepPatched, xrand.New(5))
	if got := m.Actual(0.5 * us); got > 1*us {
		t.Errorf("patched sub-us sleep took %v s", got)
	}
	// At or above 1us it behaves like hr_sleep.
	if got := m.Actual(10 * us); got < 12*us {
		t.Errorf("patched 10us sleep too fast: %v", got)
	}
}

func TestActualFloorsAndNegatives(t *testing.T) {
	m := NewModel(HRSleep, xrand.New(6))
	for i := 0; i < 1000; i++ {
		if m.Actual(-5) <= 0 {
			t.Fatal("non-positive sleep duration")
		}
	}
}

// Actual's noise is zero-mean: samples centre on the calibrated line.
func TestMeanMatchesSamples(t *testing.T) {
	m := NewModel(HRSleep, xrand.New(7))
	got, _ := sampleMean(m, 20*us, 50000)
	want := m.p.gain*20*us + m.p.base
	if math.Abs(got-want) > 50e-9 {
		t.Errorf("sample mean %.3f us vs analytic %.3f us", got*1e6, want*1e6)
	}
}

func TestMonotoneInRequest(t *testing.T) {
	m := NewModel(HRSleep, xrand.New(8))
	prev := 0.0
	for _, req := range []float64{0, 1 * us, 5 * us, 20 * us, 100 * us} {
		v, _ := sampleMean(m, req, 20000)
		if v <= prev {
			t.Fatalf("mean latency not increasing at req=%v", req)
		}
		prev = v
	}
}

func TestServiceString(t *testing.T) {
	if HRSleep.String() != "hr_sleep" || Nanosleep.String() != "nanosleep" {
		t.Error("service names wrong")
	}
	if HRSleepPatched.String() == "unknown" || Service(99).String() != "unknown" {
		t.Error("string fallback wrong")
	}
}

func TestSpinSleeperPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	s := SpinSleeper{Slack: 500 * time.Microsecond}
	const d = time.Millisecond
	for i := 0; i < 20; i++ {
		start := time.Now()
		s.Sleep(d)
		el := time.Since(start)
		if el < d {
			t.Fatalf("woke early: %v < %v", el, d)
		}
	}
}

func TestMeasureOvershoot(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	xs := MeasureOvershoot(GoSleeper{}, 100*time.Microsecond, 10)
	if len(xs) != 10 {
		t.Fatal("sample count")
	}
	for _, x := range xs {
		if x < 100e-6 {
			t.Fatalf("overshoot below request: %v", x)
		}
	}
}

func BenchmarkModelActual(b *testing.B) {
	m := NewModel(HRSleep, xrand.New(1))
	for i := 0; i < b.N; i++ {
		_ = m.Actual(10 * us)
	}
}
