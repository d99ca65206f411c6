// Command perfbench is the repository's layered benchmark. It runs one
// named workload (campaign, fig8 or fleet) for a fixed wall-clock budget in
// a single process, checks every deterministic output, and prints its
// metrics with units; the last line of standard output is one JSON object.
//
// With -trace 0 every pass runs untraced and the end-to-end metrics are
// reported. With -trace 1 untraced and traced passes alternate; the traced
// passes time the calls into each layer's public functions through wrappers
// owned by this package, and the per-layer metrics are reported. See
// README.md for the workloads and the layer-to-metric map.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload fig8 --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the benchmark seed that maps onto the repository's own
// seeds: study seed 1 (campaign), world seed 11 (fig8), world seed 23 with
// the canonical fleet.Sized configuration (fleet). The reference digests
// and the fidelity checks apply at this seed only.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics, in print order. run_p99_ms is
// printed too but is not one of them: on the 2-core host the benchmark was
// written on, its spread between runs reached 0.27 (fig8) and 0.34 (fleet)
// of its median, more than any bound the benchmark can set.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"run_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced-run metrics, in print order. A layer a workload
// does not cross through any wrapped boundary reports 0 (see README.md).
var perLayer = []metricDef{
	{"sim.step_self_us", "us"},
	{"sim.steps", "count"},
	{"sim.sched_updates_per_step", "ratio"},
	{"apps.step_self_us", "us"},
	{"apps.marshal_us", "us"},
	{"apps.marshal_bytes", "bytes"},
	{"dc.intercept_self_us", "us"},
	{"dc.commits", "count"},
	{"dc.commit_bytes", "bytes"},
	{"dc.two_phase_rounds", "count"},
	{"dc.log_forces", "count"},
	{"vista.pages_dirtied", "count"},
	{"vista.hash_hit_ratio", "ratio"},
	{"vista.undo_bytes", "bytes"},
	{"kernel.calls", "count"},
	{"kernel.call_us", "us"},
	{"kernel.save_us", "us"},
	{"faults.fork_us", "us"},
	{"faults.fork_p99_us", "us"},
	{"faults.cow_bytes_per_fork", "bytes"},
	{"faults.pages_privatized", "count"},
	{"faults.run_rest_us", "us"},
	{"faults.steps_replayed_per_run", "count"},
	{"faults.prefix_reuse", "ratio"},
	{"faults.crash_yield", "ratio"},
	{"ledger.bytes", "bytes"},
	{"ledger.read_s", "s"},
	{"ledger.analyze_s", "s"},
	{"ledger.markdown_s", "s"},
	{"statemachine.veto_s", "s"},
	{"trace_overhead", "ratio"},
	{"trace.top_coverage", "ratio"},
}

// minTopCoverage is the share of a traced pass's wall time its top-level
// spans must account for; a pass below it fails the accounting check.
const minTopCoverage = 0.90

// output is the digest of one deterministic output of a pass, with the
// number of operations it covers (a mismatch fails them all).
type output struct {
	name   string
	digest string
	ops    int
}

// newOutput digests an output's canonical text form.
func newOutput(name, text string, ops int) output { return output{name, digest(text), ops} }

// passResult is one pass over a workload.
type passResult struct {
	wall  time.Duration
	setup time.Duration
	// lat holds the operation latencies: one per injection run or cell,
	// or one per fleetBatch scheduling decisions of a fleet run.
	lat []time.Duration
	// ops counts operations attempted; failed those that returned an
	// error, left the world unfinished, or failed a check inside the pass.
	ops, failed int
	outputs     []output
	// cpu is the process CPU time (user + system) the pass used.
	cpu time.Duration
	// peakMB is the pass's peak resident memory (see memSampler).
	peakMB float64
	// layers holds the per-layer metrics of a traced pass (nil untraced).
	layers map[string]float64
}

// workload is one named benchmark workload.
type workload interface {
	// pass runs the workload once; t is nil for an untraced pass.
	pass(t *tracer) *passResult
	// inputs renders the generated inputs, for the seed-sensitivity check.
	inputs() string
	// fidelity compares the workload against the code ftbench runs, at
	// the default seed, and returns the number of operations it failed.
	fidelity(w io.Writer) int
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "campaign":
		return &campaignWL{seed: seed}, nil
	case "fig8":
		return &fig8WL{seed: seed, scale: 10}, nil
	case "fleet":
		return &fleetWL{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want campaign, fig8 or fleet)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, fig8 or fleet")
	seed := fs.Int64("seed", defaultSeed, "workload seed (1 = the repository's seeds)")
	seconds := fs.Float64("seconds", 30, "wall-clock budget for the measured passes")
	trace := fs.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: alternate untraced and traced passes, per-layer metrics")
	writeRef := fs.String("write-reference", "", "write the first pass's output digests to this file (regenerates reference.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *seed < 0 || *seed > 1<<31 {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	if *writeRef != "" && *seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: -write-reference needs -seed %d\n", defaultSeed)
		return 2
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	out := stdout

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(out, "inputs digest=%s\n", digest(wl.inputs()))

	untraced, traced := measure(wl, time.Duration(*seconds*float64(time.Second)), *trace == 1)

	attempted, failed := 0, 0
	all := append(append([]*passResult{}, untraced...), traced...)
	for _, p := range all {
		attempted += p.ops
		failed += p.failed
	}
	// Every pass, traced or not, must reproduce the first untraced pass.
	first := untraced[0]
	for _, p := range all[1:] {
		failed += compareOutputs("pass-vs-pass", first.outputs, digestsOf(p.outputs))
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef, *name, first.outputs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *seed == defaultSeed {
		ref, err := loadReference(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		failed += compareOutputs("reference", first.outputs, ref)
		failed += wl.fidelity(out)
	}
	if *trace == 1 {
		for _, p := range traced {
			if cov := p.layers["trace.top_coverage"]; cov < minTopCoverage || cov > 1.0001 {
				checkFailed("top-level spans cover %.4f of the traced pass (want >= %.2f)", cov, minTopCoverage)
				failed += p.ops
			}
		}
	}
	if failed > attempted {
		failed = attempted
	}

	metrics := map[string]float64{}
	var defs []metricDef
	if *trace == 0 {
		defs = endToEnd
		var walls, setups, peaks, cpus, p50s, p99s []float64
		samples := 0
		for _, p := range untraced {
			walls = append(walls, p.wall.Seconds())
			setups = append(setups, p.setup.Seconds())
			peaks = append(peaks, p.peakMB)
			cpus = append(cpus, p.cpu.Seconds())
			var lat []float64
			for _, l := range p.lat {
				lat = append(lat, float64(l)/1e6)
			}
			p50s = append(p50s, quantile(lat, 0.50))
			p99s = append(p99s, quantile(lat, 0.99))
			samples += len(lat)
		}
		metrics["wall_s"] = median(walls)
		metrics["setup_s"] = median(setups)
		metrics["run_p50_ms"] = median(p50s)
		metrics["run_p99_ms"] = median(p99s)
		metrics["peak_rss_mb"] = median(peaks)
		fmt.Fprintf(out, "passes=%d operation-latency-samples=%d pass-walls-s=%.3f pass-cpu-s=%.3f pass-peak-mb=%.1f\n", len(untraced), samples, walls, cpus, peaks)
	} else {
		defs = perLayer
		for _, d := range perLayer {
			var vs []float64
			for _, p := range traced {
				vs = append(vs, p.layers[d.name])
			}
			metrics[d.name] = median(vs)
		}
		var uw, tw []float64
		for _, p := range untraced {
			uw = append(uw, p.wall.Seconds())
		}
		for _, p := range traced {
			tw = append(tw, p.wall.Seconds())
		}
		metrics["trace_overhead"] = median(tw)/median(uw) - 1
		fmt.Fprintf(out, "passes untraced=%d traced=%d\n", len(untraced), len(traced))
	}
	for _, d := range defs {
		fmt.Fprintf(out, "metric %-30s %16.6f %s\n", d.name, metrics[d.name], d.unit)
	}
	if *trace == 0 {
		fmt.Fprintf(out, "info   %-30s %16.6f ms\n", "run_p99_ms", metrics["run_p99_ms"])
	}
	fmt.Fprintf(out, "fail_frac %g (%d/%d operations)\n", float64(failed)/float64(attempted), failed, attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// measure runs passes until the budget is spent: untraced passes only, or
// with trace alternating untraced and traced passes (at least one of each).
// Each pass starts from a collected heap so one pass's garbage is not
// charged to the next.
func measure(wl workload, budget time.Duration, trace bool) (untraced, traced []*passResult) {
	start := time.Now()
	for i := 0; ; i++ {
		passStart := time.Now()
		runtime.GC()
		debug.FreeOSMemory()
		mem := startMemSampler()
		cpu0 := cpuTime()
		var r *passResult
		if trace && i%2 == 1 {
			r = wl.pass(newTracer(monoNow))
			traced = append(traced, r)
		} else {
			r = wl.pass(nil)
			untraced = append(untraced, r)
		}
		r.peakMB = mem.stop()
		r.cpu = cpuTime() - cpu0
		// Stop when the next pass would end more than half a pass past
		// the budget.
		if time.Since(start)+time.Since(passStart)/2 >= budget && (!trace || len(traced) > 0) {
			return untraced, traced
		}
	}
}

// clockBase anchors monoNow, so tracer timestamps come from the monotonic
// clock.
var clockBase = time.Now()

func monoNow() int64 { return int64(time.Since(clockBase)) }

// compareOutputs checks got (canonical outputs) against want (name →
// digest) and returns the number of operations whose outputs differ.
func compareOutputs(what string, got []output, want map[string]string) int {
	failed := 0
	seen := map[string]bool{}
	for _, o := range got {
		seen[o.name] = true
		if want[o.name] != o.digest {
			checkFailed("%s: output %s digest %s, want %q", what, o.name, o.digest, want[o.name])
			failed += o.ops
		}
	}
	for name := range want {
		if !seen[name] {
			checkFailed("%s: output %s missing", what, name)
			failed++
		}
	}
	return failed
}

func digestsOf(outs []output) map[string]string {
	m := make(map[string]string, len(outs))
	for _, o := range outs {
		m[o.name] = o.digest
	}
	return m
}

// reference is the stored form of reference.json: per workload, the output
// digests of one pass at the default seed.
type reference map[string]map[string]string

func loadReference(name string) (map[string]string, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref[name], nil
}

// writeReference merges one workload's digests into the reference file at
// path, keeping the other workloads' entries.
func writeReference(path, name string, outs []output) error {
	ref := reference{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	ref[name] = digestsOf(outs)
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuTime returns the process's CPU time so far (user + system, all
// threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks one pass's peak resident memory: the memory the Go
// runtime has mapped and not returned to the OS, sampled every few
// milliseconds. The whole program is Go, so this is its resident set up to
// the runtime's own bookkeeping.
type memSampler struct {
	done chan struct{}
	peak chan float64
}

func startMemSampler() *memSampler {
	m := &memSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / 1e6; v > peak {
				peak = v
			}
			select {
			case <-m.done:
				m.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the sampling goroutine and returns the peak in MB.
func (m *memSampler) stop() float64 {
	close(m.done)
	return <-m.peak
}

// checkFailed reports one failed output check on standard error (standard
// output ends with the result line).
func checkFailed(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

// digest is the short content hash outputs are compared by.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:16])
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
