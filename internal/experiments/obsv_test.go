package experiments

import (
	"fmt"
	"strings"
	"testing"

	"metronome/internal/core"
	"metronome/internal/faults"
	"metronome/internal/mbuf"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/ring"
	lr "metronome/internal/runtime"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// obsvScript is the shared control-plane scenario both substrates replay:
// placement swaps interleaved with every fault-flag family. Each step is
// either a plan (ApplyPlacement) or a fault event (Injector.Apply).
type obsvStep struct {
	plan []int
	ev   *faults.Event
}

func obsvScript() []obsvStep {
	f := func(k faults.Kind, target int) *faults.Event {
		return &faults.Event{Kind: k, Target: target}
	}
	return []obsvStep{
		{plan: []int{2, 1}},
		{ev: f(faults.ThreadStall, 1)},
		{ev: f(faults.QueueBlackout, 0)},
		{plan: []int{1, 2}},
		{ev: f(faults.QueueRecover, 0)},
		{ev: f(faults.ControllerDown, 0)},
		{ev: f(faults.ControllerUp, 0)},
		{plan: []int{2, 2}},
		{ev: f(faults.TelemetryFreeze, 1)},
	}
}

// signature renders the recorder's event stream clock-free: kinds and
// payloads only, which is what the two substrates must agree on (their
// clocks are incommensurable — virtual seconds vs wall elapsed).
func signature(rec *obsv.Recorder) []string {
	var out []string
	for _, e := range rec.Events(nil) {
		out = append(out, fmt.Sprintf("%s a=%d b=%d", e.Kind, e.A, e.B))
	}
	return out
}

// The flight recorder's substrate-equivalence gate: the same scripted
// control-plane scenario replayed against the sim core and the live runner
// must record the same event kinds with the same payloads in the same
// order. (Timestamps differ by construction — sim virtual time vs
// Runner.Elapsed — and are excluded from the signature.)
func TestObsvSimLiveEquivalence(t *testing.T) {
	script := obsvScript()

	// Sim substrate: a parked core runtime (nothing started — the script
	// drives the control plane directly, so no data-path events interleave).
	simRec := obsv.NewRecorder(256)
	{
		eng := sim.New()
		root := xrand.New(1)
		queues := []*nic.Queue{
			nic.NewQueue(0, traffic.CBR{PPS: 1e6}, root.Split(), nic.DefaultOptions()),
			nic.NewQueue(1, traffic.CBR{PPS: 1e6}, root.Split(), nic.DefaultOptions()),
		}
		cfg := core.DefaultConfig()
		cfg.M = 2
		cfg.Policy = sched.NameRMetronome
		cfg.Seed = 1
		cfg.Bus = telemetry.NewBus(2, 4)
		inj := faults.New(4, 2)
		cfg.Faults = inj
		cfg.Recorder = simRec
		obsv.AttachFaults(inj, simRec)
		r := core.New(eng, queues, cfg)
		for _, s := range script {
			if s.plan != nil {
				r.ApplyPlacement(s.plan)
			} else {
				inj.Apply(*s.ev)
			}
		}
	}

	// Live substrate: an unstarted runner over in-memory rings — the same
	// script against the same control surface.
	liveRec := obsv.NewRecorder(256)
	{
		var queues []lr.RxQueue
		for i := 0; i < 2; i++ {
			rg, err := ring.NewMPMC[*mbuf.Mbuf](64)
			if err != nil {
				t.Fatal(err)
			}
			queues = append(queues, lr.RingQueue{R: rg})
		}
		inj := faults.New(4, 2)
		cfg := lr.Config{Policy: sched.NameRMetronome, Seed: 1, M: 2, Faults: inj, Recorder: liveRec}
		r := lr.New(queues, func(batch []*mbuf.Mbuf) {
			for _, m := range batch {
				m.Free()
			}
		}, cfg)
		obsv.AttachFaults(inj, liveRec)
		for _, s := range script {
			if s.plan != nil {
				r.ApplyPlacement(s.plan)
			} else {
				inj.Apply(*s.ev)
			}
		}
	}

	simSig, liveSig := signature(simRec), signature(liveRec)
	if len(simSig) == 0 {
		t.Fatal("sim substrate recorded nothing")
	}
	if got, want := strings.Join(liveSig, "\n"), strings.Join(simSig, "\n"); got != want {
		t.Errorf("substrates disagree on the recorded sequence:\nsim:\n%s\nlive:\n%s", want, got)
	}
	// Sanity: the script's three effective placements and six fault flips
	// all landed.
	counts := simRec.CountByKind()
	if counts[obsv.EvPlacement] != 3 {
		t.Errorf("recorded %d placements, want 3", counts[obsv.EvPlacement])
	}
	if counts[obsv.EvFault] != 6 {
		t.Errorf("recorded %d fault flips, want 6", counts[obsv.EvFault])
	}
}

// The byte-identity gate: the same seeded elastic run produces the same
// flight recording — rendered bytes included — at any experiment-harness
// parallelism, because sim recordings are a pure function of the seed.
func TestTraceParallelByteIdentity(t *testing.T) {
	run := func(parallel int) (string, int) {
		rec := obsv.NewRecorder(1 << 14)
		stragglerResults(Options{Seed: 1, Quick: true, Parallel: parallel}, rec)
		var trace strings.Builder
		if err := rec.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return trace.String(), len(rec.Events(nil))
	}
	trace1, n := run(1)
	trace8, _ := run(8)
	if n == 0 {
		t.Fatal("recorder captured nothing from the elastic arm")
	}
	if trace1 != trace8 {
		t.Error("WriteTrace differs between -parallel 1 and 8")
	}
}
