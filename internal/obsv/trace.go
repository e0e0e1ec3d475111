package obsv

import (
	"io"
	"strconv"

	"metronome/internal/faults"
)

// Trace serialisation. WriteTrace snapshots the ring once and renders
// every surviving event oldest-first with fixed field order and
// shortest-round-trip float formatting, so a recording rendered twice —
// or produced by the same seeded simulation at any experiment-harness
// parallelism — is byte-identical.

// appendF renders a gauge with the shortest representation that
// round-trips — deterministic across runs and platforms.
func appendF(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendPlan renders a packed placement plan as "2/1/1" (byte q of the
// word is queue q's member count; normalized plans hold >= 1 member per
// queue, so a zero byte terminates).
func appendPlan(dst []byte, plan uint64) []byte {
	for first := true; plan != 0; plan >>= 8 {
		if !first {
			dst = append(dst, '/')
		}
		first = false
		dst = strconv.AppendUint(dst, plan&0xff, 10)
	}
	return dst
}

// appendFlags renders a decision's flag bits as "resized|rebalanced|safe"
// ("-" when none are set).
func appendFlags(dst []byte, flags uint8) []byte {
	if flags == 0 {
		return append(dst, '-')
	}
	sep := false
	put := func(s string) {
		if sep {
			dst = append(dst, '|')
		}
		sep = true
		dst = append(dst, s...)
	}
	if flags&FlagResized != 0 {
		put("resized")
	}
	if flags&FlagRebalanced != 0 {
		put("rebalanced")
	}
	if flags&FlagSafeMode != 0 {
		put("safe")
	}
	return dst
}

// appendJSONString appends s as a JSON string literal. strconv.Quote is
// not used because it emits \x escapes, which JSON does not allow.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch {
		case r == '"':
			dst = append(dst, '\\', '"')
		case r == '\\':
			dst = append(dst, '\\', '\\')
		case r == '\n':
			dst = append(dst, '\\', 'n')
		case r == '\t':
			dst = append(dst, '\\', 't')
		case r < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			dst = append(dst, string(r)...)
		}
	}
	return append(dst, '"')
}

// appendTraceTS renders a substrate timestamp as Chrome trace
// microseconds with fixed sub-microsecond precision.
func appendTraceTS(dst []byte, at float64) []byte {
	return strconv.AppendFloat(dst, at*1e6, 'f', 3, 64)
}

// WriteTrace dumps the recording as Chrome trace-event JSON (loadable in
// Perfetto and chrome://tracing, and folded by metrotop -trace): every
// event becomes a global instant event ("ph":"i") whose args carry its
// sequence number and kind-specific fields, a panic's message and stack
// included, and decisions/placements additionally emit "team size" and
// "worst occupancy" counter rows ("ph":"C"). Deterministic for a quiescent
// recorder — the harness byte-compares traces across -parallel settings.
func (r *Recorder) WriteTrace(w io.Writer) error {
	events := r.Events(nil)
	panics := r.PanicLog()
	var buf []byte
	buf = append(buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	emit := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for _, e := range events {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, "\n"...)
		buf = append(buf, `{"name":`...)
		buf = appendJSONString(buf, e.Kind.String())
		buf = append(buf, `,"cat":"obsv","ph":"i","s":"g","pid":1,"tid":0,"ts":`...)
		buf = appendTraceTS(buf, e.At)
		buf = append(buf, `,"args":{"seq":`...)
		buf = strconv.AppendUint(buf, e.Seq, 10)
		switch e.Kind {
		case EvDecision:
			buf = append(buf, `,"want":`...)
			buf = strconv.AppendInt(buf, int64(e.Want()), 10)
			buf = append(buf, `,"applied":`...)
			buf = strconv.AppendInt(buf, int64(e.Applied()), 10)
			buf = append(buf, `,"occ":`...)
			buf = appendF(buf, e.F1)
			buf = append(buf, `,"ff":`...)
			buf = appendF(buf, e.F2)
			buf = append(buf, `,"watts":`...)
			buf = appendF(buf, e.F3)
			if e.B != 0 {
				buf = append(buf, `,"plan":`...)
				buf = appendJSONString(buf, string(appendPlan(nil, e.B)))
			}
			buf = append(buf, `,"flags":`...)
			buf = appendJSONString(buf, string(appendFlags(nil, e.Flags)))
		case EvPlacement:
			buf = append(buf, `,"total":`...)
			buf = strconv.AppendInt(buf, e.A, 10)
			if e.B != 0 {
				buf = append(buf, `,"plan":`...)
				buf = appendJSONString(buf, string(appendPlan(nil, e.B)))
			}
		case EvExile, EvRecover:
			buf = append(buf, `,"thread":`...)
			buf = strconv.AppendInt(buf, e.A, 10)
		case EvSafeEnter, EvSafeExit:
			buf = append(buf, `,"team":`...)
			buf = strconv.AppendInt(buf, e.A, 10)
		case EvDarkLoss:
			buf = append(buf, `,"queue":`...)
			buf = strconv.AppendInt(buf, e.A, 10)
			buf = append(buf, `,"drops":`...)
			buf = strconv.AppendUint(buf, e.B, 10)
		case EvFault:
			buf = append(buf, `,"kind":`...)
			buf = appendJSONString(buf, faults.Kind(e.B).String())
			buf = append(buf, `,"target":`...)
			buf = strconv.AppendInt(buf, e.A, 10)
		case EvPanic:
			if i := int(e.A); i >= 0 && i < len(panics) {
				buf = append(buf, `,"msg":`...)
				buf = appendJSONString(buf, panics[i].Msg)
				buf = append(buf, `,"stack":`...)
				buf = appendJSONString(buf, panics[i].Stack)
			}
		}
		buf = append(buf, "}}"...)
		// Counter tracks: team size after every actuation-bearing event,
		// worst occupancy per decision.
		switch e.Kind {
		case EvDecision:
			buf = append(buf, `,
{"name":"team size","ph":"C","pid":1,"ts":`...)
			buf = appendTraceTS(buf, e.At)
			buf = append(buf, `,"args":{"members":`...)
			buf = strconv.AppendInt(buf, int64(e.Applied()), 10)
			buf = append(buf, `}},
{"name":"worst occupancy","ph":"C","pid":1,"ts":`...)
			buf = appendTraceTS(buf, e.At)
			buf = append(buf, `,"args":{"fraction":`...)
			buf = appendF(buf, e.F1)
			buf = append(buf, "}}"...)
		case EvPlacement:
			buf = append(buf, `,
{"name":"team size","ph":"C","pid":1,"ts":`...)
			buf = appendTraceTS(buf, e.At)
			buf = append(buf, `,"args":{"members":`...)
			buf = strconv.AppendInt(buf, e.A, 10)
			buf = append(buf, "}}"...)
		}
		if err := emit(); err != nil {
			return err
		}
	}
	buf = append(buf, "\n]}\n"...)
	return emit()
}
