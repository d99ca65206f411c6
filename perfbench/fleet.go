package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/bench"
	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// fleetWL is the echo fleet under the indexed scheduler, built as
// bench.FleetCurves builds its cells: 10⁵ processes unrecoverable, then
// 10⁴ processes under CPV-2PC on Rio. Operations are fleet runs; with only
// two per pass, the latency samples are batches of fleetBatch scheduling
// decisions instead.
type fleetWL struct{ seed int64 }

// fleetBatch is the number of scheduling decisions per latency sample.
const fleetBatch = 1_000

// fleetRun is one fleet run of a pass.
type fleetRun struct {
	procs int
	pol   *protocol.Policy
}

var fleetRuns = []fleetRun{{100_000, nil}, {10_000, &protocol.CPV2PC}}

// config is fleet.Sized(n) at the default seed; other seeds jitter the
// think time and payload size, which moves the schedule and the bytes
// committed but not the amount of work.
func (f *fleetWL) config(n int) fleet.Config {
	cfg := fleet.Sized(n)
	if f.seed == defaultSeed {
		return cfg
	}
	h := splitmix(uint64(f.seed))
	cfg.Think = 8*time.Millisecond + time.Duration(h%4001)*time.Microsecond
	cfg.Payload = 48 + int(h>>32%33)
	return cfg.Norm()
}

// worldSeed maps the benchmark seed onto the fleet's world seed (23).
func (f *fleetWL) worldSeed() int64 { return f.seed + 22 }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (f *fleetWL) inputs() string {
	var b strings.Builder
	for _, r := range fleetRuns {
		fmt.Fprintf(&b, "%+v world-seed=%d\n", f.config(r.procs), f.worldSeed())
	}
	return b.String()
}

// fleetResult is one fleet run's timings and deterministic outputs.
type fleetResult struct {
	label        string
	setup, lat   time.Duration
	batches      []time.Duration // wall time of each fleetBatch steps
	procs, done  int
	steps, ckpts int
	clock        time.Duration
	schedUpdates int64
	outputs      string // digest of the global output stream
}

func (r fleetResult) String() string {
	return fmt.Sprintf("procs=%d done=%d steps=%d vclock_ns=%d ckpts=%d sched_updates=%d outputs=%s",
		r.procs, r.done, r.steps, int64(r.clock), r.ckpts, r.schedUpdates, r.outputs)
}

// run executes one fleet run, timing its set-up, the whole run and every
// fleetBatch scheduling decisions; t, if non-nil, traces it and c
// accumulates its obs counters.
func (f *fleetWL) run(fr fleetRun, t *tracer, c *counters) (fleetResult, error) {
	start := time.Now()
	t.begin(spanSetup)
	w := sim.NewWorld(f.worldSeed(), fleet.Fleet(f.config(fr.procs))...)
	w.RecordTrace = false
	w.MaxSteps = 100_000_000
	m, _ := w.EnableObs(false)
	wrapWorld(w, t)
	name := "NONE"
	var d *dc.DC
	var err error
	if fr.pol != nil {
		name = fr.pol.Name
		d = dc.New(w, *fr.pol, stablestore.Rio)
		err = d.Attach()
	} else {
		err = w.Init()
	}
	wrapRecovery(w, t)
	t.end()
	r := fleetResult{label: fmt.Sprintf("fleet/%d/%s", fr.procs, name), setup: time.Since(start)}
	lapStart := time.Now()
	lap := func() {
		now := time.Now()
		r.batches = append(r.batches, now.Sub(lapStart))
		lapStart = now
	}
	if err == nil {
		err = stepWorld(w, t, fleetBatch, lap)
	}
	r.lat = time.Since(start)
	r.procs, r.done, r.steps, r.clock = len(w.Procs), w.DoneCount(), w.StepCount(), w.Clock
	r.schedUpdates = m.SchedUpdates
	if d != nil {
		r.ckpts = d.Stats.TotalCheckpoints()
	}
	h := sha256.New()
	for _, o := range w.GlobalOutputs {
		io.WriteString(h, o)
		h.Write([]byte{'\n'})
	}
	r.outputs = hex.EncodeToString(h.Sum(nil))
	c.add(m)
	return r, err
}

func (f *fleetWL) pass(t *tracer) *passResult {
	res := &passResult{}
	var c counters
	passStart := time.Now()
	for _, fr := range fleetRuns {
		r, err := f.run(fr, t, &c)
		res.ops++
		res.setup += r.setup
		res.lat = append(res.lat, r.batches...)
		if err != nil || r.done != r.procs {
			checkFailed("%s: err=%v done=%d/%d", r.label, err, r.done, r.procs)
			res.failed++
		}
		res.outputs = append(res.outputs, newOutput(r.label, r.String(), 1))
	}
	res.wall = time.Since(passStart)
	if t != nil {
		res.layers = layerMetrics(t, &c, res.wall)
	}
	return res
}

// fidelity runs bench.FleetCurves at a small size and requires the
// benchmark's construction to reproduce its NONE and CPV-2PC points.
func (f *fleetWL) fidelity(w io.Writer) int {
	const n = 200
	want, err := bench.FleetCurves([]int{n})
	if err != nil {
		checkFailed("fidelity: bench.FleetCurves: %v", err)
		return 1
	}
	failed := 0
	for _, fr := range fleetRuns {
		name := "NONE"
		if fr.pol != nil {
			name = fr.pol.Name
		}
		got, err := f.run(fleetRun{n, fr.pol}, nil, &counters{})
		ok := false
		for _, p := range want.Points {
			if p.Sched == "indexed" && p.Protocol == name {
				ok = err == nil && p.Steps == got.steps && p.VirtualUs == int64(got.clock/time.Microsecond) &&
					p.Checkpoints == got.ckpts && p.SchedUpdates == got.schedUpdates
			}
		}
		if !ok {
			checkFailed("fidelity: fleet %s at n=%d differs from bench.FleetCurves (err=%v)", name, n, err)
			failed++
		}
	}
	if failed == 0 {
		fmt.Fprintf(w, "fidelity fleet: NONE and CPV-2PC reproduce bench.FleetCurves points at n=%d\n", n)
	}
	return failed
}
