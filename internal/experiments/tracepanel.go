package experiments

// This file renders the flight-recorder panels: a recorder-attached
// experiment arm folds its obsv ring into one deterministic table — one
// row per event kind that fired, with the count, the first/last substrate
// timestamps and a decoded detail of the last occurrence. The panels ride
// the same Table renderer (and therefore the same -parallel byte-identity
// gates) as every other figure: on the sim substrate a recording is
// byte-identical at any worker count, so the folded table is too.

import (
	"fmt"
	"strings"

	"metronome/internal/faults"
	"metronome/internal/obsv"
	"metronome/internal/sched"
)

// planString renders a packed placement plan as per-queue counts
// ("3/2/1/1"), or "-" for the zero (absent/unpackable) word.
func planString(plan uint64) string {
	counts := sched.UnpackPlacement(plan, nil)
	if len(counts) == 0 {
		return "-"
	}
	parts := make([]string, len(counts))
	for i, m := range counts {
		parts[i] = fmt.Sprintf("%d", m)
	}
	return strings.Join(parts, "/")
}

// traceDetail decodes one event's kind-specific payload for the panel's
// detail column.
func traceDetail(e obsv.Event) string {
	switch e.Kind {
	case obsv.EvDecision:
		var fl []string
		if e.Flags&obsv.FlagResized != 0 {
			fl = append(fl, "resized")
		}
		if e.Flags&obsv.FlagRebalanced != 0 {
			fl = append(fl, "rebalanced")
		}
		if e.Flags&obsv.FlagSafeMode != 0 {
			fl = append(fl, "safe")
		}
		flags := "-"
		if len(fl) > 0 {
			flags = strings.Join(fl, "|")
		}
		return fmt.Sprintf("M=%d->%d occ=%s plan=%s flags=%s",
			e.Want(), e.Applied(), f2(e.F1), planString(e.Plan()), flags)
	case obsv.EvPlacement:
		return fmt.Sprintf("M=%d plan=%s", e.Applied(), planString(e.Plan()))
	case obsv.EvExile, obsv.EvRecover:
		return fmt.Sprintf("thread=%d", e.Target())
	case obsv.EvSafeEnter, obsv.EvSafeExit:
		return fmt.Sprintf("M=%d", e.Applied())
	case obsv.EvDarkLoss:
		return fmt.Sprintf("queue=%d drops=%d", e.Target(), e.B)
	case obsv.EvFault:
		return fmt.Sprintf("%s target=%d", faults.Kind(e.B), e.Target())
	case obsv.EvRateLimit:
		return "-"
	case obsv.EvPanic:
		return fmt.Sprintf("log=%d", e.A)
	}
	return "-"
}

// traceTable folds a flight recording into the decision-trace panel: one
// row per kind in ring order of first occurrence, summarising how the arm's
// control plane spent the measured window.
func traceTable(id, title string, rec *obsv.Recorder) *Table {
	events := rec.Events(nil)
	type agg struct {
		count       int
		first, last obsv.Event
	}
	perKind := make(map[obsv.Kind]*agg)
	var order []obsv.Kind
	for _, e := range events {
		a := perKind[e.Kind]
		if a == nil {
			a = &agg{first: e}
			perKind[e.Kind] = a
			order = append(order, e.Kind)
		}
		a.count++
		a.last = e
	}
	rows := make([][]string, 0, len(order))
	for _, k := range order {
		a := perKind[k]
		rows = append(rows, []string{
			k.String(),
			fmt.Sprintf("%d", a.count),
			f1(a.first.At * 1e3),
			f1(a.last.At * 1e3),
			traceDetail(a.last),
		})
	}
	notes := []string{
		fmt.Sprintf("flight recorder: %d events survive of %d recorded (ring capacity %d); timestamps are substrate run-clock seconds rendered in ms (the ring resets at the warm-up boundary, the clock does not)", len(events), rec.Total(), rec.Cap()),
		"detail decodes the last occurrence of each kind; dump the full ring with obsv.WriteTrace (Perfetto; metrotop -trace folds it) outside the harness",
	}
	if d := rec.Dropped(); d > 0 {
		notes = append(notes, fmt.Sprintf("ring wrapped: the oldest %d events were overwritten and are absent from the counts", d))
	}
	return &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"event", "count", "first_ms", "last_ms", "last_detail"},
		Rows:    rows,
		Notes:   notes,
	}
}
