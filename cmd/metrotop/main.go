// Command metrotop is the live operator view over a Metronome deployment:
// an ANSI terminal refresher rendering the telemetry bus — per-queue
// occupancy bars, exact latency tails, team state, exile and safe-mode
// banners — from a Prometheus metrics endpoint or a recorded flight trace.
//
//	metrotop -metrics http://localhost:9090/metrics
//	metrotop -metrics http://localhost:9090/metrics -interval 250ms
//	metrotop -trace run.txt
//	metrotop -metrics ... -once        # single frame, no ANSI (CI smoke)
//
// Live mode scrapes the endpoint every -interval and redraws in place; the
// latency quantiles shown are recomputed from the scraped histogram
// buckets with the bus's own conservative rule, so they match the
// in-process fold exactly. Trace mode folds a flight-recorder text dump
// (obsv.WriteText output, e.g. metropcap's future dumps or test logs) into
// a one-shot post-mortem: per-kind counts, the final controller state and
// the tail of the event stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		metrics  = flag.String("metrics", "", "Prometheus metrics endpoint URL to watch")
		trace    = flag.String("trace", "", "flight-recorder text dump to fold (obsv.WriteText format)")
		interval = flag.Duration("interval", time.Second, "refresh period in live mode")
		once     = flag.Bool("once", false, "render one frame without ANSI control and exit")
		ns       = flag.String("namespace", "metronome", "metric namespace prefix of the endpoint")
	)
	flag.Parse()

	switch {
	case *trace != "":
		f, err := os.Open(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out, err := renderTrace(f)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *metrics != "":
		for {
			frame, err := scrapeFrame(*metrics, *ns)
			if err != nil {
				fatal(err)
			}
			if *once {
				fmt.Print(frame)
				return
			}
			// Clear and home between frames: a flicker-free in-place redraw.
			fmt.Print("\x1b[2J\x1b[H" + frame)
			time.Sleep(*interval)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// scrapeFrame fetches one exposition and renders it.
func scrapeFrame(url, ns string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrotop: %s returned %s", url, resp.Status)
	}
	return renderScrape(resp.Body, ns, time.Now().Format("15:04:05"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metrotop:", err)
	os.Exit(1)
}

// bar renders frac of width as a block-character gauge. A fraction that is
// not finite (a NaN gauge, an Inf occupancy or Inf over Inf) draws empty.
func bar(frac float64, width int) string {
	if frac < 0 || math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("░", width-full)
}

// fmtRate renders packets/second in engineering units.
func fmtRate(pps float64) string {
	switch {
	case pps >= 1e6:
		return fmt.Sprintf("%.2f Mpps", pps/1e6)
	case pps >= 1e3:
		return fmt.Sprintf("%.1f Kpps", pps/1e3)
	default:
		return fmt.Sprintf("%.0f pps", pps)
	}
}

// fmtNs renders a nanosecond latency in engineering units.
func fmtNs(ns uint64) string {
	switch {
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1f us", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}

// kvLine is one parsed flight-trace line: the event kind plus its
// key=value fields.
type kvLine struct {
	kind   string
	at     float64
	fields map[string]string
	raw    string
}

// parseTraceText parses obsv.WriteText output. Panic stack lines (no
// "[seq]" prefix) are folded into a count.
func parseTraceText(r io.Reader) (lines []kvLine, panics int, err error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		if strings.HasPrefix(ln, "panic[") {
			panics++
			continue
		}
		if !strings.HasPrefix(ln, "[") {
			continue // stack frame lines following a panic entry
		}
		close := strings.IndexByte(ln, ']')
		if close < 0 {
			continue
		}
		parts := strings.Fields(ln[close+1:])
		if len(parts) < 2 || !strings.HasPrefix(parts[0], "t=") {
			continue
		}
		at, _ := strconv.ParseFloat(strings.TrimPrefix(parts[0], "t="), 64)
		kv := kvLine{kind: parts[1], at: at, fields: map[string]string{}, raw: ln}
		for _, p := range parts[2:] {
			if eq := strings.IndexByte(p, '='); eq > 0 {
				kv.fields[p[:eq]] = p[eq+1:]
			}
		}
		lines = append(lines, kv)
	}
	return lines, panics, nil
}

// renderTrace folds a flight-recorder text dump into a post-mortem frame.
func renderTrace(r io.Reader) (string, error) {
	lines, panics, err := parseTraceText(r)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrotop — flight-trace post-mortem (%d events", len(lines))
	if panics > 0 {
		fmt.Fprintf(&b, ", %d PANICS", panics)
	}
	b.WriteString(")\n\n")
	if len(lines) == 0 {
		b.WriteString("  (empty trace)\n")
		return b.String(), nil
	}

	counts := map[string]int{}
	order := []string{}
	exiled := map[string]bool{}
	safe := false
	var lastDecision *kvLine
	for i := range lines {
		ln := &lines[i]
		if counts[ln.kind] == 0 {
			order = append(order, ln.kind)
		}
		counts[ln.kind]++
		switch ln.kind {
		case "decision":
			lastDecision = ln
		case "exile":
			exiled[ln.fields["thread"]] = true
		case "recover":
			delete(exiled, ln.fields["thread"])
		case "safe-enter":
			safe = true
		case "safe-exit":
			safe = false
		}
	}

	if safe {
		b.WriteString("  !! ENDED IN SAFE MODE — every queue's telemetry was stale\n")
	}
	if len(exiled) > 0 {
		ids := make([]string, 0, len(exiled))
		for id := range exiled {
			ids = append(ids, id)
		}
		fmt.Fprintf(&b, "  !! EXILED AT END: threads %s (heartbeats never resumed)\n", strings.Join(ids, ","))
	}
	if safe || len(exiled) > 0 {
		b.WriteString("\n")
	}

	span := lines[len(lines)-1].at - lines[0].at
	fmt.Fprintf(&b, "  span %.3fs  (t=%.3f .. t=%.3f)\n\n", span, lines[0].at, lines[len(lines)-1].at)
	for _, k := range order {
		fmt.Fprintf(&b, "  %-11s %6d\n", k, counts[k])
	}
	if lastDecision != nil {
		f := lastDecision.fields
		fmt.Fprintf(&b, "\n  last decision: t=%.3f M=%s (want %s) occ=%s watts=%s plan=%s flags=%s\n",
			lastDecision.at, f["applied"], f["want"], f["occ"], f["watts"],
			orDash(f["plan"]), orDash(f["flags"]))
	}
	b.WriteString("\n  tail:\n")
	tail := lines
	if len(tail) > 10 {
		tail = tail[len(tail)-10:]
	}
	for _, ln := range tail {
		fmt.Fprintf(&b, "    %s\n", ln.raw)
	}
	return b.String(), nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
