package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWrappersTransparent runs every Figure 8 cell at scale 1 untraced and
// traced: the wrappers must not change a single output.
func TestWrappersTransparent(t *testing.T) {
	wl := &fig8WL{seed: defaultSeed, scale: 1}
	plain := wl.pass(nil)
	tr := newTracer(monoNow)
	traced := wl.pass(tr)
	if plain.failed != 0 || traced.failed != 0 {
		t.Fatalf("failed cells: untraced %d, traced %d", plain.failed, traced.failed)
	}
	if len(plain.outputs) != cellCount()*4 || len(traced.outputs) != len(plain.outputs) {
		t.Fatalf("outputs: untraced %d, traced %d, want %d", len(plain.outputs), len(traced.outputs), cellCount()*4)
	}
	for i, o := range plain.outputs {
		if traced.outputs[i] != o {
			t.Errorf("%s: traced output %+v, untraced %+v", o.name, traced.outputs[i], o)
		}
	}
	// The wrappers really were in the path.
	for _, k := range []span{spanSimStep, spanAppsStep, spanAppsMarshal, spanDC, spanKernelCall, spanKernelSave} {
		if tr.get(k).Count == 0 {
			t.Errorf("span kind %d never recorded", k)
		}
	}
	if tr.MarshalBytes == 0 {
		t.Error("no marshal bytes counted")
	}
	// Every kernel call went through the OS wrapper.
	if got, want := float64(tr.get(spanKernelCall).Count), traced.layers["kernel.calls"]; got != want {
		t.Errorf("OS wrapper saw %v calls, kernel counted %v", got, want)
	}
}

// TestSelfTime checks the self-time arithmetic on a synthetic span tree
// with a scripted clock:
//
//	setup   [0, 5]
//	step    [10, 40]
//	  app   [12, 30]
//	    dc  [14, 26]
//	      marshal [15, 20]  and  [18, 24]  (concurrent, overlapping)
//	    call [27, 29]
//	  dc    [32, 36]
func TestSelfTime(t *testing.T) {
	var clock int64
	tr := newTracer(func() int64 { return clock })
	at := func(v int64) { clock = v }

	at(0)
	tr.begin(spanSetup)
	at(5)
	tr.end()
	at(10)
	tr.begin(spanSimStep)
	at(12)
	tr.begin(spanAppsStep)
	at(14)
	tr.begin(spanDC)
	tr.leaf(spanAppsMarshal, 18, 24) // arrives first, out of order
	tr.leaf(spanAppsMarshal, 15, 20)
	at(26)
	tr.end()
	tr.leaf(spanKernelCall, 27, 29)
	at(30)
	tr.end()
	at(32)
	tr.begin(spanDC)
	at(36)
	tr.end()
	at(40)
	tr.end()

	want := map[span]spanAgg{
		spanSetup:       {Count: 1, SelfNs: 5},
		spanSimStep:     {Count: 1, SelfNs: 30 - 18 - 4},
		spanAppsStep:    {Count: 1, SelfNs: 18 - 12 - 2},
		spanDC:          {Count: 2, SelfNs: (12 - 9) + 4},
		spanAppsMarshal: {Count: 2, SelfNs: 11},
		spanKernelCall:  {Count: 1, SelfNs: 2},
	}
	for k, w := range want {
		if got := tr.get(k); got != w {
			t.Errorf("span %d: got %+v, want %+v", k, got, w)
		}
	}
	if tr.TopNs != 35 {
		t.Errorf("top-level time %d, want 35", tr.TopNs)
	}
}

func TestCoverage(t *testing.T) {
	for _, c := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{5, 8}, {0, 10}}, 10},
		{[]interval{{0, 3}, {5, 9}, {2, 6}}, 9},
		{[]interval{{0, 1}, {4, 6}}, 3},
	} {
		if got := coverage(c.iv); got != c.want {
			t.Errorf("coverage(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// TestSeedChangesInputs requires every workload's generated inputs to
// depend on the seed argument, and only on it.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"campaign", "fig8", "fleet"} {
		seen := map[string]int64{}
		for _, seed := range []int64{0, defaultSeed, defaultSeed + 1, 7} {
			a, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newWorkload(name, seed)
			in := a.inputs()
			if in != b.inputs() {
				t.Errorf("%s: seed %d generated two different inputs", name, seed)
			}
			if prev, ok := seen[in]; ok {
				t.Errorf("%s: seeds %d and %d generate the same inputs", name, prev, seed)
			}
			seen[in] = seed
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(v, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile(v, 0.99); math.Abs(got-4.96) > 1e-9 {
		t.Errorf("q99 = %v, want 4.96", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", c.what, len(c.spec), len(c.defs))
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", c.what, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}
