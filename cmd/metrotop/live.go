package main

// The live frame: one scraped exposition rendered as the operator view.
// Quantiles are recomputed from the scraped buckets with the bus's own
// conservative upper-edge rule (obsv.HistSeries.Quantile), so the numbers
// on screen equal the in-process fold — what you see is what the
// controller saw.

import (
	"fmt"
	"io"
	"strings"

	"metronome/internal/obsv"
	"metronome/internal/telemetry"
)

// qkey builds the canonical key ParseExposition emits for queue q's series s.
func qkey(ns string, s telemetry.Series, q int) string {
	return fmt.Sprintf(`%s_%s{queue="%d"}`, ns, s.Name, q)
}

// renderScrape parses one exposition and renders the operator frame.
func renderScrape(body io.Reader, ns, clock string) (string, error) {
	s, err := obsv.ParseExposition(body)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrotop — %s\n\n", clock)

	// Banners first: the states an operator must not miss.
	if v, ok := s.Value(ns + "_safe_mode"); ok && v != 0 {
		b.WriteString("  !! SAFE MODE — every queue's telemetry is stale; the controller holds/grows blind\n")
	}
	exiles, _ := s.Value(ns + `_events_total{kind="exile"}`)
	recovers, _ := s.Value(ns + `_events_total{kind="recover"}`)
	if n := exiles - recovers; n > 0 {
		fmt.Fprintf(&b, "  !! %g EXILED MEMBER(S) — stragglers latched out, home queues reinforced\n", n)
	}
	if p, ok := s.Value(ns + `_events_total{kind="panic"}`); ok && p > 0 {
		fmt.Fprintf(&b, "  !! %g CONTROLLER PANIC(S) swallowed by the tick watchdog\n", p)
	}

	// Team state.
	if v, ok := s.Value(ns + "_team_size"); ok {
		fmt.Fprintf(&b, "  team %.0f", v)
		b.WriteString(teamDetail(s, ns))
		b.WriteString("\n")
	}

	// Per-queue rows while the series exist.
	b.WriteString("\n")
	for q := 0; ; q++ {
		occ, ok := s.Value(qkey(ns, telemetry.Gauges[telemetry.Occupancy], q))
		if !ok {
			if q == 0 {
				b.WriteString("  (no per-queue series in this scrape)\n")
			}
			break
		}
		capacity, _ := s.Value(qkey(ns, telemetry.Gauges[telemetry.Capacity], q))
		rate, _ := s.Value(qkey(ns, telemetry.Gauges[telemetry.ArrivalRate], q))
		drops, _ := s.Value(qkey(ns, telemetry.Counters[telemetry.Drops], q))
		frac := 0.0
		if capacity > 0 {
			frac = occ / capacity
		}
		fmt.Fprintf(&b, "  q%-2d [%s] %5.1f%%  %10s  drops %.0f",
			q, bar(frac, 24), frac*100, fmtRate(rate), drops)
		if h := s.Histogram(qkey(ns, telemetry.Latency, q)); h != nil && h.Count() > 0 {
			fmt.Fprintf(&b, "  p99 %s  p99.9 %s", fmtNs(h.Quantile(0.99)), fmtNs(h.Quantile(0.999)))
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// teamDetail renders the controller gauges riding the scrape, when present.
func teamDetail(s *obsv.Scrape, ns string) string {
	var parts []string
	if v, ok := s.Value(ns + "_controller_want"); ok {
		parts = append(parts, fmt.Sprintf("want %.0f", v))
	}
	if v, ok := s.Value(ns + "_controller_occupancy"); ok {
		parts = append(parts, fmt.Sprintf("worst occ %.1f%%", v*100))
	}
	if v, ok := s.Value(ns + "_controller_watts"); ok && v > 0 {
		parts = append(parts, fmt.Sprintf("%.1f W", v))
	}
	if len(parts) == 0 {
		return ""
	}
	return "  (" + strings.Join(parts, ", ") + ")"
}
