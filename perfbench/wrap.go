package main

import (
	"failtrans/internal/event"
	"failtrans/internal/obs"
	"failtrans/internal/sim"
)

// The wrappers below time calls into the program's public interfaces from
// outside. Each forwards to the wrapped value unchanged; the transparency
// test checks that every fig8 cell's outputs are identical with and without
// them.

// tracedProgram wraps a sim.Program. Init and Name are forwarded untimed.
type tracedProgram struct {
	sim.Program
	t *tracer
}

func (p *tracedProgram) Step(ctx *sim.Ctx) sim.Status {
	p.t.begin(spanAppsStep)
	st := p.Program.Step(ctx)
	p.t.end()
	return st
}

// MarshalState may run on the parallel 2PC diff goroutines, so it records a
// leaf span.
func (p *tracedProgram) MarshalState() ([]byte, error) {
	start := p.t.now()
	b, err := p.Program.MarshalState()
	p.t.leaf(spanAppsMarshal, start, p.t.now())
	p.t.addMarshalBytes(len(b))
	return b, err
}

func (p *tracedProgram) UnmarshalState(data []byte) error {
	start := p.t.now()
	err := p.Program.UnmarshalState(data)
	p.t.leaf(spanAppsUnmarshal, start, p.t.now())
	return err
}

// tracedRecovery wraps the attached recovery layer (*dc.DC). Every method is
// called from the goroutine that steps the world, so each opens a span whose
// children are the marshal and kernel-save calls a commit makes.
type tracedRecovery struct {
	r sim.Recovery
	t *tracer
}

func (r *tracedRecovery) BeforeEvent(p *sim.Proc, kind event.Kind, nd event.NDClass, label string) {
	r.t.begin(spanDC)
	r.r.BeforeEvent(p, kind, nd, label)
	r.t.end()
}

func (r *tracedRecovery) AfterEvent(p *sim.Proc, ev event.Event) {
	r.t.begin(spanDC)
	r.r.AfterEvent(p, ev)
	r.t.end()
}

func (r *tracedRecovery) EndStep(p *sim.Proc) {
	r.t.begin(spanDC)
	r.r.EndStep(p)
	r.t.end()
}

func (r *tracedRecovery) OnBlocked(p *sim.Proc) bool {
	r.t.begin(spanDC)
	ok := r.r.OnBlocked(p)
	r.t.end()
	return ok
}

func (r *tracedRecovery) SupplyND(p *sim.Proc, label string) ([]byte, bool) {
	r.t.begin(spanDC)
	val, ok := r.r.SupplyND(p, label)
	r.t.end()
	return val, ok
}

func (r *tracedRecovery) RecordND(p *sim.Proc, label string, val []byte) bool {
	r.t.begin(spanDC)
	ok := r.r.RecordND(p, label, val)
	r.t.end()
	return ok
}

func (r *tracedRecovery) OnCrash(p *sim.Proc, reason string) bool {
	r.t.begin(spanDC)
	ok := r.r.OnCrash(p, reason)
	r.t.end()
	return ok
}

// tracedOS wraps the simulated kernel. SetObs is forwarded so the world's
// metrics registry still reaches the kernel through the wrapper.
type tracedOS struct {
	os sim.OS
	t  *tracer
}

func (o *tracedOS) Call(pid int, name string, args [][]byte) ([][]byte, event.NDClass, error) {
	start := o.t.now()
	ret, nd, err := o.os.Call(pid, name, args)
	o.t.leaf(spanKernelCall, start, o.t.now())
	return ret, nd, err
}

func (o *tracedOS) SaveProcState(pid int) []byte {
	start := o.t.now()
	b := o.os.SaveProcState(pid)
	o.t.leaf(spanKernelSave, start, o.t.now())
	return b
}

func (o *tracedOS) RestoreProcState(pid int, blob []byte) {
	start := o.t.now()
	o.os.RestoreProcState(pid, blob)
	o.t.leaf(spanKernelRestore, start, o.t.now())
}

func (o *tracedOS) SetObs(m *obs.Metrics, tr *obs.Tracer) {
	if s, ok := o.os.(sim.ObsSink); ok {
		s.SetObs(m, tr)
	}
}

// wrapWorld installs the program and OS wrappers on a freshly built world,
// before Init/Attach. The recovery wrapper goes on after Attach (see
// wrapRecovery), because dc.New installs the DC itself.
func wrapWorld(w *sim.World, t *tracer) {
	if t == nil {
		return
	}
	for _, p := range w.Procs {
		p.Prog = &tracedProgram{Program: p.Prog, t: t}
	}
	if w.OS != nil {
		w.OS = &tracedOS{os: w.OS, t: t}
	}
}

// wrapRecovery interposes on the world's attached recovery layer.
func wrapRecovery(w *sim.World, t *tracer) {
	if t == nil || w.Recovery == nil {
		return
	}
	w.Recovery = &tracedRecovery{r: w.Recovery, t: t}
}

// runWorld drives a world to completion: World.Run untraced, or the same
// Init-then-Step loop with one span per scheduling decision when traced.
func runWorld(w *sim.World, t *tracer) error {
	if t == nil {
		return w.Run()
	}
	return stepWorld(w, t, 0, nil)
}

// stepWorld is World.Run's loop (Init, then Step until nothing can run),
// with one span per scheduling decision when t is non-nil and lap called
// after every batch steps when lap is non-nil.
func stepWorld(w *sim.World, t *tracer, batch int, lap func()) error {
	if err := w.Init(); err != nil {
		return err
	}
	for n := 1; ; n++ {
		t.begin(spanSimStep)
		more, err := w.Step()
		t.end()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		if lap != nil && n%batch == 0 {
			lap()
		}
	}
}
