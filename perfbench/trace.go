package main

import (
	"sort"
	"sync"
	"time"

	"failtrans/internal/obs"
)

// span identifies one layer boundary the traced run times. Every span is
// recorded by the benchmark's own wrappers around calls into the program's
// public API; nothing inside the program is instrumented.
type span int

const (
	spanSetup         span = iota // world build + Init/Attach (fig8, fleet)
	spanSimStep                   // World.Step
	spanAppsStep                  // Program.Step
	spanAppsMarshal               // Program.MarshalState
	spanAppsUnmarshal             // Program.UnmarshalState
	spanDC                        // any sim.Recovery method of the attached *dc.DC
	spanKernelCall                // OS.Call
	spanKernelSave                // OS.SaveProcState
	spanKernelRestore             // OS.RestoreProcState
	spanStudy                     // one AppStudy/OSStudy Run (campaign)
	spanFork                      // one snapshot fork, fed by the study's WallClock hook
	spanLedgerRead                // ledger.ReadAll
	spanLedgerAnalyze             // ledger.Analyze
	spanMarkdown                  // Report.WriteMarkdown
	spanVeto                      // Miner.VetoPolicies + statemachine.WritePolicies
	nSpans
)

// spanAgg accumulates one span kind over a pass.
type spanAgg struct {
	Count  int64
	SelfNs int64 // summed durations minus child-span coverage
}

// interval is a closed child span [s, e] in tracer-clock nanoseconds.
type interval struct{ s, e int64 }

// frame is one open span on the simulation goroutine's stack.
type frame struct {
	kind  span
	start int64
	kids  []interval
}

// tracer aggregates spans online: a span's self time is its duration minus
// the union of its children's intervals, so concurrent children (the
// parallel 2PC member diffs) are not double-subtracted. Spans that can have
// children (begin/end) are opened only on the goroutine that drives the
// world; leaf spans may arrive from any goroutine and attach to whatever
// span is open on that stack — during a parallel diff that is the dc span
// blocked waiting for its members. mu orders the two.
//
// A nil *tracer is valid and records nothing, so untraced passes run the
// same code with tracing off.
type tracer struct {
	now func() int64

	mu    sync.Mutex
	stack []frame
	depth int
	agg   [nSpans]spanAgg
	// TopNs sums the durations of spans opened with nothing else open: the
	// part of the pass the top-level spans account for.
	TopNs int64
	// MarshalBytes totals the bytes MarshalState returned.
	MarshalBytes int64
}

func newTracer(now func() int64) *tracer { return &tracer{now: now} }

// begin opens a span that may have children. Simulation goroutine only.
func (t *tracer) begin(k span) {
	if t == nil {
		return
	}
	start := t.now()
	t.mu.Lock()
	if t.depth == len(t.stack) {
		t.stack = append(t.stack, frame{})
	}
	f := &t.stack[t.depth]
	f.kind, f.start, f.kids = k, start, f.kids[:0]
	t.depth++
	t.mu.Unlock()
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	stop := t.now()
	t.mu.Lock()
	t.depth--
	f := &t.stack[t.depth]
	dur := stop - f.start
	a := &t.agg[f.kind]
	a.Count++
	a.SelfNs += dur - coverage(f.kids)
	t.attach(f.start, stop)
	t.mu.Unlock()
}

// leaf records a completed span with no children, from any goroutine.
func (t *tracer) leaf(k span, start, stop int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	a := &t.agg[k]
	a.Count++
	a.SelfNs += stop - start
	t.attach(start, stop)
	t.mu.Unlock()
}

// attach credits a finished span to its parent, or to the top level.
// Caller holds mu.
func (t *tracer) attach(start, stop int64) {
	if t.depth == 0 {
		t.TopNs += stop - start
		return
	}
	p := &t.stack[t.depth-1]
	p.kids = append(p.kids, interval{start, stop})
}

// addMarshalBytes counts serialized checkpoint bytes (any goroutine).
func (t *tracer) addMarshalBytes(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.MarshalBytes += int64(n)
	t.mu.Unlock()
}

// get returns one span kind's aggregate.
func (t *tracer) get(k span) spanAgg { return t.agg[k] }

// coverage returns the length of the union of the intervals. Children
// recorded on the simulation goroutine arrive sorted and disjoint; only
// concurrent leaves can overlap or arrive out of order, so the sort runs
// only when needed.
func coverage(iv []interval) int64 {
	sorted := true
	for i := 1; i < len(iv); i++ {
		if iv[i].s < iv[i-1].s {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(iv, func(i, j int) bool { return iv[i].s < iv[j].s })
	}
	var total int64
	var curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x.s > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x.s, x.e, true
			continue
		}
		if x.e > curE {
			curE = x.e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// counters sums the obs counters of a pass's worlds.
type counters struct {
	steps, schedUpdates                          int64
	commits, commitBytes, twoPhase, logForces    int64
	pagesDirtied, hashHits, hashMisses, undoByte int64
	syscalls                                     int64
}

func (c *counters) add(m *obs.Metrics) {
	c.steps += m.Steps
	c.schedUpdates += m.SchedUpdates
	c.twoPhase += m.TwoPhaseRounds
	for i := range m.Procs {
		p := &m.Procs[i]
		c.commits += p.Commits
		c.commitBytes += p.CommitBytes
		c.logForces += p.LogForces
		c.syscalls += p.Syscalls
	}
	for i := range m.Vista {
		v := &m.Vista[i]
		c.pagesDirtied += v.PagesDirtied
		c.hashHits += v.HashHits
		c.hashMisses += v.HashMisses
		c.undoByte += v.UndoBytes
	}
}

// layerMetrics renders a traced pass of worlds the benchmark built itself
// (fig8, fleet) as per-layer metrics.
func layerMetrics(t *tracer, c *counters, wall time.Duration) map[string]float64 {
	us := func(k span) float64 { return float64(t.get(k).SelfNs) / 1e3 }
	return map[string]float64{
		"sim.step_self_us":           us(spanSimStep),
		"sim.steps":                  float64(c.steps),
		"sim.sched_updates_per_step": ratio(float64(c.schedUpdates), float64(c.steps)),
		"apps.step_self_us":          us(spanAppsStep),
		"apps.marshal_us":            us(spanAppsMarshal),
		"apps.marshal_bytes":         float64(t.MarshalBytes),
		"dc.intercept_self_us":       us(spanDC),
		"dc.commits":                 float64(c.commits),
		"dc.commit_bytes":            float64(c.commitBytes),
		"dc.two_phase_rounds":        float64(c.twoPhase),
		"dc.log_forces":              float64(c.logForces),
		"vista.pages_dirtied":        float64(c.pagesDirtied),
		"vista.hash_hit_ratio":       ratio(float64(c.hashHits), float64(c.hashHits+c.hashMisses)),
		"vista.undo_bytes":           float64(c.undoByte),
		"kernel.calls":               float64(c.syscalls),
		"kernel.call_us":             us(spanKernelCall),
		"kernel.save_us":             us(spanKernelSave),
		"trace.top_coverage":         float64(t.TopNs) / float64(wall),
	}
}
