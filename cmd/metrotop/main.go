// Command metrotop is the live operator view over a Metronome deployment:
// an ANSI terminal refresher rendering the telemetry bus — per-queue
// occupancy bars, exact latency tails, team state, exile and safe-mode
// banners — from a Prometheus metrics endpoint or a recorded flight trace.
//
//	metrotop -metrics http://localhost:9090/metrics
//	metrotop -metrics http://localhost:9090/metrics -interval 250ms
//	metrotop -trace run.json
//	metrotop -metrics ... -once        # single frame, no ANSI (CI smoke)
//
// Live mode scrapes the endpoint every -interval and redraws in place; the
// latency quantiles shown are recomputed from the scraped histogram
// buckets with the bus's own conservative rule, so they match the
// in-process fold exactly. Trace mode folds a flight-recorder dump — the
// Chrome trace JSON of obsv.WriteTrace, which metropcap -trace-out writes
// and Perfetto loads — into a one-shot post-mortem: per-kind counts, the
// end-of-run safe-mode and exile banners, the last decision and the tail
// of the event stream. A file that is not such a trace exits non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		metrics  = flag.String("metrics", "", "Prometheus metrics endpoint URL to watch")
		trace    = flag.String("trace", "", "flight-recorder dump to fold (the Chrome trace JSON metropcap -trace-out writes)")
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

// event is one recorder row of a flight trace: its kind, its substrate
// timestamp in seconds and its args in dump order.
type event struct {
	kind string
	at   float64
	args []arg
}

// arg is one event argument: strings bare, any other value as its JSON.
type arg struct{ key, val string }

// get returns the value of the named argument ("" when absent).
func (e *event) get(key string) string {
	for _, a := range e.args {
		if a.key == key {
			return a.val
		}
	}
	return ""
}

// parseTrace decodes an obsv.WriteTrace dump: its "ph":"i" rows are the
// recorder's events, its "ph":"C" rows the counter tracks derived from
// them, which the post-mortem skips. Anything that is not a JSON object
// with a traceEvents array is an error.
func parseTrace(r io.Reader) ([]event, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("not a flight trace: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, errors.New("not a flight trace: no traceEvents array")
	}
	var events []event
	for _, row := range doc.TraceEvents {
		if row.Ph != "i" {
			continue
		}
		args, err := decodeArgs(row.Args)
		if err != nil {
			return nil, fmt.Errorf("not a flight trace: %s event: %w", row.Name, err)
		}
		events = append(events, event{kind: row.Name, at: row.TS / 1e6, args: args})
	}
	return events, nil
}

// decodeArgs splits an event's args object into its fields, keeping the
// order the dump wrote them in.
func decodeArgs(raw json.RawMessage) ([]arg, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	d := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := d.Token(); err != nil || tok != json.Delim('{') {
		return nil, errors.New("args is not an object")
	}
	var args []arg
	for d.More() {
		key, err := d.Token()
		if err != nil {
			return nil, err
		}
		var v json.RawMessage
		if err := d.Decode(&v); err != nil {
			return nil, err
		}
		val := string(v)
		if v[0] == '"' {
			if err := json.Unmarshal(v, &val); err != nil {
				return nil, err
			}
		}
		args = append(args, arg{key.(string), val})
	}
	return args, nil
}

// renderTrace folds a flight-trace dump into a post-mortem frame.
func renderTrace(r io.Reader) (string, error) {
	events, err := parseTrace(r)
	if err != nil {
		return "", err
	}
	counts := map[string]int{}
	order := []string{}
	exiled := map[string]bool{}
	safe := false
	var lastDecision *event
	for i := range events {
		e := &events[i]
		if counts[e.kind] == 0 {
			order = append(order, e.kind)
		}
		counts[e.kind]++
		switch e.kind {
		case "decision":
			lastDecision = e
		case "exile":
			exiled[e.get("thread")] = true
		case "recover":
			delete(exiled, e.get("thread"))
		case "safe-enter":
			safe = true
		case "safe-exit":
			safe = false
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "metrotop — flight-trace post-mortem (%d events", len(events))
	if n := counts["panic"]; n > 0 {
		fmt.Fprintf(&b, ", %d PANICS", n)
	}
	b.WriteString(")\n\n")
	if len(events) == 0 {
		b.WriteString("  (empty trace)\n")
		return b.String(), nil
	}
	if safe {
		b.WriteString("  !! ENDED IN SAFE MODE — every queue's telemetry was stale\n")
	}
	if len(exiled) > 0 {
		ids := make([]string, 0, len(exiled))
		for id := range exiled {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "  !! EXILED AT END: threads %s (heartbeats never resumed)\n", strings.Join(ids, ","))
	}
	if safe || len(exiled) > 0 {
		b.WriteString("\n")
	}

	first, last := events[0].at, events[len(events)-1].at
	fmt.Fprintf(&b, "  span %.3fs  (t=%.3f .. t=%.3f)\n\n", last-first, first, last)
	for _, k := range order {
		fmt.Fprintf(&b, "  %-11s %6d\n", k, counts[k])
	}
	if d := lastDecision; d != nil {
		fmt.Fprintf(&b, "\n  last decision: t=%.3f M=%s (want %s) occ=%s watts=%s plan=%s flags=%s\n",
			d.at, d.get("applied"), d.get("want"), d.get("occ"), d.get("watts"),
			orDash(d.get("plan")), orDash(d.get("flags")))
	}
	b.WriteString("\n  tail:\n")
	tail := events[max(0, len(events)-10):]
	for _, e := range tail {
		fmt.Fprintf(&b, "    t=%.9f %s", e.at, e.kind)
		for _, a := range e.args {
			val := a.val
			if strings.ContainsAny(val, " \t\n") {
				val = strconv.Quote(val)
			}
			fmt.Fprintf(&b, " %s=%s", a.key, val)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
