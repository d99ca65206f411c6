package bench

import (
	"bytes"
	"testing"
	"time"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// stateApps builds a short fault-free run of every application, covering
// each program type that implements sim.StateAppender.
var stateApps = []struct {
	name  string
	build func() (*sim.World, error)
}{
	{"nvi", func() (*sim.World, error) { return BuildWorld("nvi", 1, 11) }},
	{"magic", func() (*sim.World, error) { return BuildWorld("magic", 1, 11) }},
	{"xpilot", func() (*sim.World, error) { return BuildWorld("xpilot", 1, 11) }},
	{"treadmarks", func() (*sim.World, error) { return BuildWorld("treadmarks", 1, 11) }},
	{"postgres", func() (*sim.World, error) {
		w := sim.NewWorld(11, postgres.New("bench.dat"))
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = postgres.Script(faults.PostgresSession(11, 60))
		return w, nil
	}},
	{"fleet", func() (*sim.World, error) { return sim.NewWorld(23, fleet.Fleet(fleet.Sized(16))...), nil }},
}

// marshalOnly hides a program's AppendState, so the checkpoint path falls
// back to MarshalState.
type marshalOnly struct{ sim.Program }

// fallbackImage builds p's checkpoint image through the MarshalState path.
func fallbackImage(p *sim.Proc) ([]byte, error) {
	prog := p.Prog
	p.Prog = marshalOnly{prog}
	defer func() { p.Prog = prog }()
	return p.AppendCheckpointImage(nil, false)
}

// TestAppendStateMatchesMarshalState checks, at every commit of a short run
// of each application, that the image a program appends in place is byte
// for byte the image built from its MarshalState.
func TestAppendStateMatchesMarshalState(t *testing.T) {
	for _, app := range stateApps {
		t.Run(app.name, func(t *testing.T) {
			w, err := app.build()
			if err != nil {
				t.Fatal(err)
			}
			w.RecordTrace = false
			for _, p := range w.Procs {
				if _, ok := p.Prog.(sim.StateAppender); !ok {
					t.Fatalf("%s does not implement sim.StateAppender", p.Prog.Name())
				}
			}
			d := dc.New(w, protocol.CPVS, stablestore.Rio)
			commits := 0
			d.CommitHook = func(p *sim.Proc, _ string) {
				commits++
				direct, err := p.AppendCheckpointImage(nil, false)
				if err != nil {
					t.Fatal(err)
				}
				fallback, err := fallbackImage(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(direct, fallback) {
					t.Fatalf("commit %d of p%d: AppendState image (%d bytes) differs from MarshalState image (%d bytes)",
						commits, p.Index, len(direct), len(fallback))
				}
			}
			if err := d.Attach(); err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if commits == 0 {
				t.Fatal("the run committed nothing")
			}
		})
	}
}

// TestAppendCheckpointImageZeroAllocs pins the steady-state commit
// serialization of every application at zero allocations: the program
// appends into the reused image buffer and the kernel reuses its save
// buffer.
func TestAppendCheckpointImageZeroAllocs(t *testing.T) {
	for _, app := range stateApps {
		t.Run(app.name, func(t *testing.T) {
			w, err := app.build()
			if err != nil {
				t.Fatal(err)
			}
			w.RecordTrace = false
			if err := w.Init(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if more, err := w.Step(); err != nil {
					t.Fatal(err)
				} else if !more {
					break
				}
			}
			for _, p := range w.Procs {
				buf, err := p.AppendCheckpointImage(nil, false)
				if err != nil {
					t.Fatal(err)
				}
				n := testing.AllocsPerRun(20, func() {
					buf, _ = p.AppendCheckpointImage(buf[:0], false)
				})
				if n != 0 {
					t.Errorf("p%d (%s): AppendCheckpointImage allocates %.1f times per call, want 0", p.Index, p.Prog.Name(), n)
				}
			}
		})
	}
}
