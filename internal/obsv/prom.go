package obsv

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"metronome/internal/stats"
	"metronome/internal/telemetry"
)

// Prometheus text-format exposition over the telemetry bus, stdlib only.
// The per-queue latency histograms are folded straight from the bus's
// log-scale bucket layout — every occupied bucket becomes one cumulative
// `le` line whose edge is the exact stats.LogBucketUpper in seconds, no
// resampling — so quantiles recomputed from a scrape with the same
// conservative upper-edge rule match Bus.SampleLatency + Quantile
// exactly (test-enforced).

// ExportOptions wires a Metrics exporter to its sources.
type ExportOptions struct {
	// Bus is the telemetry bus to export (required).
	Bus *telemetry.Bus
	// Recorder, when set, contributes controller/health series: per-kind
	// event totals, the latest decision's team size/want/watts/occupancy,
	// and the safe-mode flag.
	Recorder *Recorder
	// TeamSize, when set, serves the live team size gauge (e.g.
	// Runner.TeamSize — atomic-safe). Without it the exporter falls back
	// to the recorder's latest decision, or omits the series.
	TeamSize func() int
	// Namespace prefixes every metric name (default "metronome").
	Namespace string
}

// Metrics is an http.Handler (and expvar source) serving the bus as
// Prometheus text-format exposition. One scrape takes one bus Sample plus
// one histogram fold per queue into handler-owned scratch buffers under a
// mutex — scrapes are concurrency-safe and allocation-light, and never
// block the publishing hot paths (the bus is lock-free).
type Metrics struct {
	opt ExportOptions

	mu     sync.Mutex
	snap   telemetry.Snapshot
	hist   stats.LogHistogram
	events []Event
	buf    []byte
}

// NewMetrics builds a Metrics exporter; it panics if opt.Bus is nil.
func NewMetrics(opt ExportOptions) *Metrics {
	if opt.Bus == nil {
		panic("obsv: NewMetrics requires a Bus")
	}
	if opt.Namespace == "" {
		opt.Namespace = "metronome"
	}
	return &Metrics{opt: opt}
}

// ServeHTTP serves one exposition scrape.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.WriteExposition(w)
}

// header emits the HELP/TYPE preamble for one metric.
func (m *Metrics) header(name, help, typ string) {
	m.buf = append(m.buf, "# HELP "...)
	m.buf = append(m.buf, m.opt.Namespace...)
	m.buf = append(m.buf, '_')
	m.buf = append(m.buf, name...)
	m.buf = append(m.buf, ' ')
	m.buf = append(m.buf, help...)
	m.buf = append(m.buf, "\n# TYPE "...)
	m.buf = append(m.buf, m.opt.Namespace...)
	m.buf = append(m.buf, '_')
	m.buf = append(m.buf, name...)
	m.buf = append(m.buf, ' ')
	m.buf = append(m.buf, typ...)
	m.buf = append(m.buf, '\n')
}

// sample emits one sample line; label is rendered as `{key="idx"}` when
// key is non-empty.
func (m *Metrics) sample(name, key string, idx int, v float64) {
	m.buf = append(m.buf, m.opt.Namespace...)
	m.buf = append(m.buf, '_')
	m.buf = append(m.buf, name...)
	if key != "" {
		m.buf = append(m.buf, '{')
		m.buf = append(m.buf, key...)
		m.buf = append(m.buf, "=\""...)
		m.buf = strconv.AppendInt(m.buf, int64(idx), 10)
		m.buf = append(m.buf, "\"}"...)
	}
	m.buf = append(m.buf, ' ')
	m.buf = appendF(m.buf, v)
	m.buf = append(m.buf, '\n')
}

// family emits one row of the bus's descriptor table: its HELP/TYPE
// preamble and one sample line per queue or thread, labelled by key.
func family[T float64 | uint64](m *Metrics, s telemetry.Series, key string, vals []T) {
	m.header(s.Name, s.Help, s.Type)
	for i, v := range vals {
		m.sample(s.Name, key, i, float64(v))
	}
}

// histLine starts one latency-histogram line, up to its queue label value:
// `<ns>_queue_latency_seconds<suffix>{queue="<q>`.
func (m *Metrics) histLine(suffix string, q int) {
	m.buf = append(m.buf, m.opt.Namespace...)
	m.buf = append(m.buf, '_')
	m.buf = append(m.buf, telemetry.Latency.Name...)
	m.buf = append(m.buf, suffix...)
	m.buf = append(m.buf, "{queue=\""...)
	m.buf = strconv.AppendInt(m.buf, int64(q), 10)
}

// WriteExposition renders one complete scrape of the bus (and recorder,
// when wired) as Prometheus text format. Output order is fixed, so two
// scrapes of a quiescent deployment are byte-identical.
func (m *Metrics) WriteExposition(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opt.Bus.Sample(&m.snap)
	m.buf = m.buf[:0]

	for g, s := range telemetry.Gauges {
		family(m, s, "queue", m.snap.Gauge[g])
	}
	for c, s := range telemetry.Counters {
		family(m, s, "queue", m.snap.Counter[c])
	}
	for g, s := range telemetry.ThreadGauges {
		family(m, s, "thread", m.snap.Thread[g])
	}

	// Team/controller state: prefer the live source, fall back to the
	// recorder's latest decision.
	last, haveLast := m.lastDecision()
	if m.opt.TeamSize != nil {
		m.header("team_size", "Active retrieval team members.", "gauge")
		m.sample("team_size", "", 0, float64(m.opt.TeamSize()))
	} else if haveLast {
		m.header("team_size", "Active retrieval team members.", "gauge")
		m.sample("team_size", "", 0, float64(last.Applied()))
	}
	if haveLast {
		m.header("controller_want", "Size-law target at the last decision.", "gauge")
		m.sample("controller_want", "", 0, float64(last.Want()))
		m.header("controller_occupancy", "Worst-queue occupancy fraction at the last decision.", "gauge")
		m.sample("controller_occupancy", "", 0, last.F1)
		m.header("controller_watts", "Modelled team watts at the last decision.", "gauge")
		m.sample("controller_watts", "", 0, last.F3)
		m.header("safe_mode", "1 while the controller is in the all-stale safe mode.", "gauge")
		safe := 0.0
		if last.Flags&FlagSafeMode != 0 {
			safe = 1
		}
		m.sample("safe_mode", "", 0, safe)
	}
	if r := m.opt.Recorder; r != nil {
		m.header("events_total", "Flight-recorder events by kind (surviving ring entries).", "counter")
		counts := [numKinds]int{}
		for _, e := range m.events {
			if int(e.Kind) < len(counts) {
				counts[e.Kind]++
			}
		}
		for k := Kind(0); k < numKinds; k++ {
			m.buf = append(m.buf, m.opt.Namespace...)
			m.buf = append(m.buf, "_events_total{kind=\""...)
			m.buf = append(m.buf, k.String()...)
			m.buf = append(m.buf, "\"} "...)
			m.buf = strconv.AppendInt(m.buf, int64(counts[k]), 10)
			m.buf = append(m.buf, '\n')
		}
	}

	// Per-queue latency histograms: exact fold from the bus bucket
	// layout. Every occupied bucket emits one cumulative line whose le is
	// the bucket's exact upper edge in seconds; _sum is the upper-edge
	// estimate (the layout counts, it does not sum).
	m.header(telemetry.Latency.Name, telemetry.Latency.Help, telemetry.Latency.Type)
	for q := 0; q < m.opt.Bus.Queues(); q++ {
		m.hist.Reset()
		m.opt.Bus.SampleLatency(q, &m.hist)
		var cum, sumNs uint64
		for i := 0; i < stats.LogHistBuckets; i++ {
			c := m.hist.CountAt(i)
			if c == 0 {
				continue
			}
			cum += c
			upper := stats.LogBucketUpper(i)
			sumNs += c * upper
			m.histLine("_bucket", q)
			m.buf = append(m.buf, "\",le=\""...)
			m.buf = appendF(m.buf, float64(upper)/1e9)
			m.buf = append(m.buf, "\"} "...)
			m.buf = strconv.AppendUint(m.buf, cum, 10)
			m.buf = append(m.buf, '\n')
		}
		m.histLine("_bucket", q)
		m.buf = append(m.buf, "\",le=\"+Inf\"} "...)
		m.buf = strconv.AppendUint(m.buf, cum, 10)
		m.buf = append(m.buf, '\n')
		m.histLine("_sum", q)
		m.buf = append(m.buf, "\"} "...)
		m.buf = appendF(m.buf, float64(sumNs)/1e9)
		m.buf = append(m.buf, '\n')
		m.histLine("_count", q)
		m.buf = append(m.buf, "\"} "...)
		m.buf = strconv.AppendUint(m.buf, cum, 10)
		m.buf = append(m.buf, '\n')
	}

	_, err := w.Write(m.buf)
	return err
}

// lastDecision scans the recorder for the newest decision event, reusing
// the handler's event scratch (caller holds m.mu).
func (m *Metrics) lastDecision() (Event, bool) {
	if m.opt.Recorder == nil {
		return Event{}, false
	}
	m.events = m.opt.Recorder.Events(m.events)
	for i := len(m.events) - 1; i >= 0; i-- {
		if m.events[i].Kind == EvDecision {
			return m.events[i], true
		}
	}
	return Event{}, false
}

var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar publishes the exporter under name on the process-wide
// expvar registry as a func variable rendering one scrape's scalar
// series: every row of the bus's descriptor table under its exposition
// name, grouped per queue (queue0: {queue_occupancy: ...}) and per
// thread (thread0: {thread_heartbeat_seconds: ...}), plus the team and
// recorder totals. Histograms stay on the Prometheus endpoint; expvar is
// the quick-look debug surface next to expvar's own memstats. Publishing
// the same name twice is a no-op — expvar itself panics on duplicates,
// so re-wiring across test runs stays safe.
func (m *Metrics) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] || expvar.Get(name) != nil {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any {
		var snap telemetry.Snapshot
		m.opt.Bus.Sample(&snap)
		out := map[string]any{}
		for q := 0; q < m.opt.Bus.Queues(); q++ {
			row := map[string]any{}
			for g, s := range telemetry.Gauges {
				row[s.Name] = snap.Gauge[g][q]
			}
			for c, s := range telemetry.Counters {
				row[s.Name] = snap.Counter[c][q]
			}
			out["queue"+strconv.Itoa(q)] = row
		}
		for t := 0; t < m.opt.Bus.Threads(); t++ {
			row := map[string]any{}
			for g, s := range telemetry.ThreadGauges {
				row[s.Name] = snap.Thread[g][t]
			}
			out["thread"+strconv.Itoa(t)] = row
		}
		if m.opt.TeamSize != nil {
			out["team_size"] = m.opt.TeamSize()
		}
		if r := m.opt.Recorder; r != nil {
			out["events_total"] = r.Total()
			out["events_dropped"] = r.Dropped()
		}
		return out
	}))
}

// HistSeries is one parsed histogram series from a scrape: exact bucket
// upper edges (nanoseconds) and cumulative counts, +Inf excluded.
type HistSeries struct {
	// UpperNs holds each occupied bucket's exact upper edge in
	// nanoseconds (recovered from the le label; the exposition emits
	// edges in seconds with round-trip formatting).
	UpperNs []uint64
	// Cum holds the cumulative count at each edge.
	Cum []uint64
}

// Count returns the series' total observation count.
func (h *HistSeries) Count() uint64 {
	if h == nil || len(h.Cum) == 0 {
		return 0
	}
	return h.Cum[len(h.Cum)-1]
}

// Quantile recomputes a quantile from the scraped buckets with exactly
// stats.LogHistogram.Quantile's conservative upper-edge rule — the first
// edge whose cumulative count reaches rank ceil(q*N) — so a quantile
// computed from a scrape equals the in-process fold bit-for-bit.
func (h *HistSeries) Quantile(q float64) uint64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	for i, c := range h.Cum {
		if c >= rank {
			return h.UpperNs[i]
		}
	}
	return h.UpperNs[len(h.UpperNs)-1]
}

// Scrape is a parsed Prometheus text exposition: scalar samples keyed by
// their full series name (labels included, as emitted) plus the folded
// histogram series.
type Scrape struct {
	// Values maps canonical series keys — name{k="v",...} with le
	// stripped and labels sorted — to sample values.
	Values map[string]float64
	// Hists maps canonical series keys to folded histogram buckets.
	Hists map[string]*HistSeries
}

// Value looks up a scalar sample by its canonical series key, e.g.
// `metronome_queue_occupancy{queue="0"}` or `metronome_team_size`.
func (s *Scrape) Value(series string) (float64, bool) {
	v, ok := s.Values[series]
	return v, ok
}

// Histogram looks up a folded histogram by its base series key, e.g.
// `metronome_queue_latency_seconds{queue="0"}`; nil when absent.
func (s *Scrape) Histogram(series string) *HistSeries {
	return s.Hists[series]
}

// ParseExposition parses Prometheus text format (the subset this package
// emits: HELP/TYPE comments, scalar samples with optional labels,
// histogram bucket series) into a Scrape. Bucket series fold back into
// HistSeries with exact nanosecond edges; the metrotop operator view and
// the CI smoke test both consume this.
func ParseExposition(r io.Reader) (*Scrape, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := &Scrape{Values: map[string]float64{}, Hists: map[string]*HistSeries{}}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obsv: unparseable exposition line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obsv: bad sample value in %q: %v", line, err)
		}
		name, labels, err := splitSeries(series)
		if err != nil {
			return nil, err
		}
		if le, isBucket := labels["le"]; isBucket && strings.HasSuffix(name, "_bucket") {
			if le == "+Inf" {
				continue // the +Inf bucket repeats _count
			}
			edge, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("obsv: bad le %q in %q: %v", le, line, err)
			}
			delete(labels, "le")
			key := canonicalKey(strings.TrimSuffix(name, "_bucket"), labels)
			h := s.Hists[key]
			if h == nil {
				h = &HistSeries{}
				s.Hists[key] = h
			}
			h.UpperNs = append(h.UpperNs, uint64(edge*1e9+0.5))
			h.Cum = append(h.Cum, uint64(val))
			continue
		}
		s.Values[canonicalKey(name, labels)] = val
	}
	// Edges arrive in emission order (ascending), but sort defensively so
	// Quantile's cumulative walk is well-defined on any producer.
	for _, h := range s.Hists {
		sort.Sort(histByEdge{h})
	}
	return s, nil
}

// splitSeries splits `name{k="v",...}` into its name and label map.
func splitSeries(series string) (string, map[string]string, error) {
	brace := strings.IndexByte(series, '{')
	if brace < 0 {
		return series, map[string]string{}, nil
	}
	if !strings.HasSuffix(series, "}") {
		return "", nil, fmt.Errorf("obsv: unterminated label set in %q", series)
	}
	name := series[:brace]
	labels := map[string]string{}
	body := series[brace+1 : len(series)-1]
	for _, part := range strings.Split(body, ",") {
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("obsv: bad label %q in %q", part, series)
		}
		k := strings.TrimSpace(part[:eq])
		v := strings.Trim(strings.TrimSpace(part[eq+1:]), `"`)
		labels[k] = v
	}
	return name, labels, nil
}

// canonicalKey rebuilds a series key with labels sorted, so lookups are
// stable regardless of producer label order.
func canonicalKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// histByEdge sorts a HistSeries' parallel slices by upper edge.
type histByEdge struct{ h *HistSeries }

// Len reports the bucket count (sort.Interface).
func (s histByEdge) Len() int { return len(s.h.UpperNs) }

// Less orders buckets by ascending upper edge (sort.Interface).
func (s histByEdge) Less(i, j int) bool { return s.h.UpperNs[i] < s.h.UpperNs[j] }

// Swap exchanges two buckets (sort.Interface).
func (s histByEdge) Swap(i, j int) {
	s.h.UpperNs[i], s.h.UpperNs[j] = s.h.UpperNs[j], s.h.UpperNs[i]
	s.h.Cum[i], s.h.Cum[j] = s.h.Cum[j], s.h.Cum[i]
}
