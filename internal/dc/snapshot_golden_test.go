package dc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// silent computes for a few steps and exits: no visible output, no
// message, no non-determinism, so no protocol ever commits, logs or rolls
// it back, and its metrics slot never observes a value.
type silent struct{ I int }

func (p *silent) Name() string                  { return "silent" }
func (p *silent) Init(ctx *sim.Ctx) error       { return nil }
func (p *silent) MarshalState() ([]byte, error) { return []byte{byte(p.I)}, nil }
func (p *silent) UnmarshalState(d []byte) error { p.I = int(d[0]); return nil }
func (p *silent) Step(ctx *sim.Ctx) sim.Status {
	if p.I >= 3 {
		return sim.Done
	}
	ctx.Compute(time.Millisecond)
	p.I++
	return sim.Ready
}

// TestMetricsSnapshotGolden pins WriteSnapshot's bytes for a small
// deterministic Discount Checking run: the requester/responder pair under
// CBNDVS-LOG with a stop failure of the requester, so every per-process
// histogram (commit latency and size, log-force latency, rollback depth)
// holds values, beside a silent process that never observes any. The
// golden file is the snapshot the registry printed when every process
// carried its histograms inline; lazily allocated histogram blocks must
// print the same bytes, including the all-zero lines of the silent
// process.
func TestMetricsSnapshotGolden(t *testing.T) {
	w := sim.NewWorld(13, &requester{Rounds: 4}, &responder{Max: 4}, &silent{})
	w.MaxSteps = 100_000
	d := New(w, protocol.CBNDVSLog, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	// Metrics cover the measured run, as Stats do: the initial commits
	// are set-up.
	m, _ := w.EnableObs(false)
	w.ScheduleStop(0, 6)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("run did not finish")
	}
	got := m.Snapshot()
	path := filepath.Join("testdata", "metrics_snapshot.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics snapshot differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
