package obs

import (
	"bytes"
	"testing"
	"time"
	"unsafe"
)

// TestProcMetricsFootprint pins the per-process counter block's size: the
// histograms live behind a pointer, so a process that never observes a
// value costs its counters and one word (1,784 bytes when the four
// histograms were inline).
func TestProcMetricsFootprint(t *testing.T) {
	if n := unsafe.Sizeof(ProcMetrics{}); n > 160 {
		t.Errorf("ProcMetrics is %d bytes, want <= 160", n)
	}
	m := NewMetrics(3)
	for i := range m.Procs {
		if m.Procs[i].Hists != nil {
			t.Fatalf("proc %d has a histogram block before any observation", i)
		}
	}
	m.Procs[1].Hist().RollbackDepth.Observe(4)
	if m.Procs[0].Hists != nil || m.Procs[2].Hists != nil {
		t.Fatal("observing into one process allocated another's block")
	}
	if h := m.Procs[1].Hists; h == nil || h != m.Procs[1].Hist() || h.RollbackDepth.Count != 1 {
		t.Fatalf("Hist did not return the one allocated block: %+v", h)
	}
}

// TestMergeAbsentHistBlocks: an absent block merges as empty on either
// side, merging never shares a block between registries, and merging two
// absent blocks allocates none.
func TestMergeAbsentHistBlocks(t *testing.T) {
	a := NewMetrics(3)
	b := NewMetrics(3)
	a.Procs[0].Hist().CommitSize.Observe(100) // present in a only
	b.Procs[1].Hist().CommitSize.Observe(200) // present in b only
	a.Merge(b)
	if h := a.Procs[0].Hists; h == nil || h.CommitSize.Count != 1 || h.CommitSize.Sum != 100 {
		t.Fatalf("proc 0 (nil on the right): %+v", h)
	}
	h := a.Procs[1].Hists
	if h == nil || h.CommitSize.Count != 1 || h.CommitSize.Sum != 200 {
		t.Fatalf("proc 1 (nil on the left): %+v", h)
	}
	if h == b.Procs[1].Hists {
		t.Fatal("merge shared o's block instead of copying it")
	}
	b.Procs[1].Hist().CommitSize.Observe(300)
	if h.CommitSize.Count != 1 {
		t.Fatal("observing into o after the merge changed m")
	}
	if a.Procs[2].Hists != nil {
		t.Fatal("merging two absent blocks allocated one")
	}
	// Merged blocks print as if every value had been observed into one.
	want := NewMetrics(3)
	want.Procs[0].Hist().CommitSize.Observe(100)
	want.Procs[1].Hist().CommitSize.Observe(200)
	if got := a.Snapshot(); !bytes.Equal(got, want.Snapshot()) {
		t.Fatalf("merged snapshot:\n%s\nwant:\n%s", got, want.Snapshot())
	}
}

// TestSummarizeAbsentHistBlocks pins Summarize over processes with and
// without histogram blocks to the roll-up the inline layout produced.
func TestSummarizeAbsentHistBlocks(t *testing.T) {
	m := NewMetrics(3)
	m.Procs[0].Events[0] = 5
	m.Procs[0].Commits = 2
	m.Procs[0].CommitBytes = 64
	m.Procs[0].Hist().CommitLatency.ObserveDuration(time.Microsecond)
	m.Procs[0].Hist().CommitLatency.ObserveDuration(3 * time.Microsecond)
	m.Procs[1].Syscalls = 7 // never observes
	m.Procs[1].EffectivelyND = 1
	m.Procs[2].Commits = 1
	m.Procs[2].LogForces = 3
	m.Procs[2].Rollbacks = 1
	m.Procs[2].ReplayedEvents = 4
	m.Procs[2].Hist().CommitLatency.ObserveDuration(8 * time.Microsecond)
	m.TwoPhaseRounds = 2
	m.Vista[0].PagesDirtied = 6
	m.Vista[2].HashHits = 9
	want := RunSummary{
		Events: 5, EffectivelyND: 1, Syscalls: 7, Commits: 3, CommitBytes: 64,
		CommitP50Ns: 4096, CommitMaxNs: 8000, LogForces: 3, Rollbacks: 1,
		ReplayedEvents: 4, TwoPhaseRounds: 2, VistaPagesDirty: 6, VistaHashHits: 9,
	}
	if got := m.Summarize(); got != want {
		t.Fatalf("Summarize = %+v\nwant        %+v", got, want)
	}
	if m.Procs[1].Hists != nil {
		t.Fatal("Summarize allocated a block for a process that never observed")
	}
}
