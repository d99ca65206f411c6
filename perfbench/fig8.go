package main

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"failtrans/internal/bench"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/obs"
	"failtrans/internal/protocol"
	"failtrans/internal/stablestore"
)

// fig8WL is every Figure 8 cell, built as ftbench -experiment fig8 builds
// it (bench.BuildWorld + dc.New + Attach + World.Run, obs metrics on,
// trace recording off), serially. Operations are cells.
type fig8WL struct {
	seed  int64
	scale int
}

// worldSeed maps the benchmark seed onto Figure 8's world seed (11).
func (f *fig8WL) worldSeed() int64 { return f.seed + 10 }

// cellSpec is one (protocol, medium) cell; pol is nil for the unrecoverable
// baseline. Index i follows bench.Fig8's layout: 0 is the baseline, then
// Rio and disk for each measured protocol.
func cellSpec(i int) (*protocol.Policy, stablestore.Medium) {
	if i == 0 {
		return nil, stablestore.Rio
	}
	pol := protocol.Measured()[(i-1)/2]
	if (i-1)%2 == 1 {
		return &pol, stablestore.Disk
	}
	return &pol, stablestore.Rio
}

func cellCount() int { return 1 + 2*len(protocol.Measured()) }

// cellResult is one cell's deterministic outputs.
type cellResult struct {
	clock     time.Duration
	ckpts     int
	logs      int64
	frames    int
	steps     int
	procSteps int
	done      bool
	metrics   obs.RunSummary
}

func (c cellResult) String() string {
	return fmt.Sprintf("ckpts=%d logs=%d vclock_ns=%d steps=%d proc_steps=%d frames=%d done=%v metrics=%+v",
		c.ckpts, c.logs, int64(c.clock), c.steps, c.procSteps, c.frames, c.done, c.metrics)
}

// runCell runs one cell, timing its set-up and the whole cell; t, if
// non-nil, traces it and c accumulates its obs counters.
func runCell(app string, scale int, seed int64, i int, t *tracer, c *counters) (cellResult, time.Duration, time.Duration, error) {
	pol, medium := cellSpec(i)
	start := time.Now()
	t.begin(spanSetup)
	w, err := bench.BuildWorld(app, scale, seed)
	if err != nil {
		t.end()
		return cellResult{}, 0, 0, err
	}
	w.RecordTrace = false
	m, _ := w.EnableObs(false)
	wrapWorld(w, t)
	var d *dc.DC
	if pol != nil {
		d = dc.New(w, *pol, medium)
		err = d.Attach()
	} else {
		err = w.Init()
	}
	wrapRecovery(w, t)
	t.end()
	setup := time.Since(start)
	if err == nil {
		err = runWorld(w, t)
	}
	lat := time.Since(start)
	if err != nil {
		return cellResult{}, setup, lat, err
	}
	r := cellResult{clock: w.Clock, steps: w.StepCount(), procSteps: w.Procs[0].Steps, done: w.AllDone(), metrics: m.Summarize()}
	if d != nil {
		r.ckpts = d.Stats.TotalCheckpoints()
		r.logs = d.Stats.LogRecords
	}
	if app == "xpilot" {
		r.frames = len(w.Outputs[1])
	}
	c.add(m)
	return r, setup, lat, nil
}

func (f *fig8WL) inputs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nvi %q\n", faults.NviSession(f.worldSeed(), 400*f.scale))
	fmt.Fprintf(&b, "magic %q\n", bench.MagicSession(f.worldSeed(), 60*f.scale))
	fmt.Fprintf(&b, "world-seed %d\n", f.worldSeed())
	return b.String()
}

// cells runs every cell of one app and returns them in bench.Fig8's order.
func (f *fig8WL) cells(app string, t *tracer, c *counters, res *passResult) []cellResult {
	out := make([]cellResult, cellCount())
	for i := range out {
		r, setup, lat, err := runCell(app, f.scale, f.worldSeed(), i, t, c)
		pol, medium := cellSpec(i)
		name := "fig8/" + app + "/baseline/" + medium.Name
		if pol != nil {
			name = "fig8/" + app + "/" + pol.Name + "/" + medium.Name
		}
		res.ops++
		res.setup += setup
		res.lat = append(res.lat, lat)
		if err != nil || !r.done {
			checkFailed("%s: err=%v done=%v", name, err, r.done)
			res.failed++
		}
		res.outputs = append(res.outputs, newOutput(name, r.String(), 1))
		out[i] = r
	}
	return out
}

func (f *fig8WL) pass(t *tracer) *passResult {
	res := &passResult{}
	var c counters
	start := time.Now()
	for _, app := range bench.Fig8Apps {
		f.cells(app, t, &c, res)
	}
	res.wall = time.Since(start)
	if t != nil {
		res.layers = layerMetrics(t, &c, res.wall)
	}
	return res
}

// fig8Rows derives bench.Fig8's rows from one app's cells, with bench.Fig8's
// arithmetic.
func fig8Rows(app string, cells []cellResult) *bench.Fig8Result {
	measured := protocol.Measured()
	base := cells[0]
	res := &bench.Fig8Result{App: app, Baseline: base.clock}
	for i := range measured {
		rio, disk := cells[1+2*i], cells[2+2*i]
		row := bench.Fig8Row{
			Protocol:        measured[i].Name,
			Checkpoints:     rio.ckpts,
			LogRecords:      rio.logs,
			OverheadRioPct:  100 * (rio.clock.Seconds() - base.clock.Seconds()) / base.clock.Seconds(),
			OverheadDiskPct: 100 * (disk.clock.Seconds() - base.clock.Seconds()) / base.clock.Seconds(),
			Metrics:         rio.metrics,
		}
		if app == "xpilot" {
			row.CkptsPerSec = float64(rio.ckpts) / rio.clock.Seconds()
			row.FPSRio = float64(rio.frames) / rio.clock.Seconds()
			row.FPSDisk = float64(disk.frames) / disk.clock.Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// fidelity requires the benchmark's cells to reproduce bench.Fig8's rows
// for every app at the benchmark's scale.
func (f *fig8WL) fidelity(w io.Writer) int {
	failed := 0
	for _, app := range bench.Fig8Apps {
		want, err := bench.Fig8(app, f.scale, 1, nil)
		var check passResult
		got := fig8Rows(app, f.cells(app, nil, &counters{}, &check))
		if err != nil || check.failed > 0 || !reflect.DeepEqual(want, got) {
			checkFailed("fidelity: fig8 %s cells differ from bench.Fig8 (err=%v)", app, err)
			failed += cellCount()
		}
	}
	if failed == 0 {
		fmt.Fprintf(w, "fidelity fig8: %d cells reproduce bench.Fig8 rows at scale %d\n", len(bench.Fig8Apps)*cellCount(), f.scale)
	}
	return failed
}
