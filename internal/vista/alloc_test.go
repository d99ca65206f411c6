package vista

import (
	"bytes"
	"math/rand"
	"testing"

	"failtrans/internal/obs"
)

// TestCommitCycleZeroAllocs pins the tentpole property of the incremental
// commit engine: once warmed up, a write→commit cycle and a
// SetContents→commit cycle allocate nothing — the dirty bitset is cleared
// in place and undo-record page buffers are recycled through the pool.
func TestCommitCycleZeroAllocs(t *testing.T) {
	seg := NewSegment(0, 4096)
	img := make([]byte, 64*1024)
	seg.SetContents(img)
	seg.Commit(nil)

	one := []byte{0}
	i := 0
	writeCycle := func() {
		one[0] = byte(i)
		if err := seg.Write((i*4096+17)%len(img), one); err != nil {
			t.Fatal(err)
		}
		seg.Commit(nil)
		i++
	}
	writeCycle() // prime the buffer pool
	if n := testing.AllocsPerRun(200, writeCycle); n != 0 {
		t.Errorf("write→commit cycle allocates %.1f times per run, want 0", n)
	}

	j := 0
	setCycle := func() {
		img[(j*4096+33)%len(img)] ^= 1
		seg.SetContents(img)
		seg.Commit(nil)
		j++
	}
	setCycle()
	if n := testing.AllocsPerRun(200, setCycle); n != 0 {
		t.Errorf("SetContents→commit cycle allocates %.1f times per run, want 0", n)
	}
}

// TestCommitCycleZeroAllocsWithMetrics proves the observability layer adds
// zero allocations to the commit hot path: the same warmed write→commit and
// SetContents→commit cycles, with a metrics slot attached, still allocate
// nothing — every counter update is a plain fixed-slot increment.
func TestCommitCycleZeroAllocsWithMetrics(t *testing.T) {
	seg := NewSegment(0, 4096)
	m := &obs.VistaMetrics{}
	seg.Metrics = m
	img := make([]byte, 64*1024)
	seg.SetContents(img)
	seg.Commit(nil)

	i := 0
	cycle := func() {
		img[(i*4096+17)%len(img)] ^= 1
		seg.SetContents(img)
		seg.Commit(nil)
		i++
	}
	cycle() // prime the buffer pool
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("instrumented SetContents→commit cycle allocates %.1f times per run, want 0", n)
	}
	if m.Commits == 0 || m.PagesDirtied == 0 {
		t.Errorf("metrics did not accumulate: %+v", *m)
	}
}

// refSegment is the naive reference model for the segment: the memory
// holds the last image, zero-padded to the largest extent ever set, and
// each page carries the dirty and known flags the commit accounting and
// the HashHits/HashMisses counters are defined by.
type refSegment struct {
	ps           int
	mem          []byte
	committed    []byte
	known, dirty []bool
	hits, misses int64
}

func (r *refSegment) extend(n int) {
	if n > len(r.mem) {
		r.mem = append(r.mem, make([]byte, n-len(r.mem))...)
	}
	for np := (len(r.mem) + r.ps - 1) / r.ps; len(r.known) < np; {
		r.known = append(r.known, false)
		r.dirty = append(r.dirty, false)
	}
}

// set lays data over the whole extent. Every page becomes known; a page
// that was already known counts a hit when its bytes are unchanged and a
// miss otherwise, and a changed page is dirtied.
func (r *refSegment) set(data []byte) {
	r.extend(len(data))
	next := make([]byte, len(r.mem))
	copy(next, data)
	for p := range r.known {
		lo, hi := p*r.ps, min((p+1)*r.ps, len(r.mem))
		same := bytes.Equal(r.mem[lo:hi], next[lo:hi])
		if r.known[p] {
			if same {
				r.hits++
			} else {
				r.misses++
			}
		}
		r.known[p] = true
		r.dirty[p] = r.dirty[p] || !same
	}
	r.mem = next
}

func (r *refSegment) write(off int, data []byte) {
	r.extend(off + len(data))
	for p := off / r.ps; p <= (off+len(data)-1)/r.ps; p++ {
		r.known[p] = false
		r.dirty[p] = true
	}
	copy(r.mem[off:], data)
}

func (r *refSegment) commit(registers []byte) Stats {
	var st Stats
	for p, d := range r.dirty {
		if d {
			st.Pages++
			r.dirty[p] = false
		}
	}
	st.Bytes = st.Pages*r.ps + len(registers)
	r.committed = append(r.committed[:0], r.mem...)
	return st
}

func (r *refSegment) rollback() {
	for p, d := range r.dirty {
		if d {
			r.known[p] = false
			r.dirty[p] = false
		}
	}
	clear(r.mem)
	copy(r.mem, r.committed)
}

func pat(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i*7)
	}
	return out
}

// TestSetContentsBoundaryCases drives the page-diff path across the
// boundary shapes the hash cache must get right: growth with a partial
// final page, shrinking, an all-zero tail, emptying, and re-growth within
// retained capacity.
func TestSetContentsBoundaryCases(t *testing.T) {
	const ps = 64
	seg := NewSegment(0, ps)
	ref := &refSegment{ps: ps}
	set := func(data []byte) {
		t.Helper()
		seg.SetContents(data)
		ref.set(data)
		if got := seg.Contents(); !bytes.Equal(got, ref.mem) {
			t.Fatalf("after SetContents(len=%d): segment %v != reference %v", len(data), got, ref.mem)
		}
	}

	// Grow across a page boundary ending in a partial final page.
	set(pat(ps*3+17, 1))
	seg.Commit(nil)

	// An identical image must dirty nothing (the clean-skip fast path).
	set(pat(ps*3+17, 1))
	if st := seg.Commit(nil); st.Pages != 0 {
		t.Errorf("identical image dirtied %d pages, want 0", st.Pages)
	}

	// A single-byte change must dirty exactly one page.
	d := pat(ps*3+17, 1)
	d[ps+5] ^= 0xFF
	set(d)
	if st := seg.Commit(nil); st.Pages != 1 {
		t.Errorf("one-byte change dirtied %d pages, want 1", st.Pages)
	}

	// Shrink to a partial first page: the old tail pages must read as zero.
	set(pat(ps/2, 2))
	seg.Commit(nil)

	// All-zero tail: only the first page holds data.
	z := pat(ps*4, 3)
	for i := ps; i < len(z); i++ {
		z[i] = 0
	}
	set(z)
	seg.Commit(nil)

	// Shrink to empty, then regrow within the retained capacity.
	set(nil)
	set(pat(ps*2+1, 4))
}

// TestSetContentsRandomizedAgainstReference interleaves SetContents, Write,
// Commit, Rollback and forks with random extents (growth and shrink
// included) and checks the segment against the naive model after every
// operation: contents, each commit's Stats, and the HashHits/HashMisses
// counters. Forks continue on a deep copy of the segment or on a COW fork
// of it frozen as a template; no template may change afterwards.
func TestSetContentsRandomizedAgainstReference(t *testing.T) {
	const ps = 32
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seg := NewSegment(0, ps)
		m := &obs.VistaMetrics{}
		seg.Metrics = m
		ref := &refSegment{ps: ps}
		seg.Commit(nil)
		ref.commit(nil)
		type frozen struct {
			seg      *Segment
			contents []byte
		}
		var templates []frozen

		randImage := func() []byte {
			n := rng.Intn(6*ps + 1)
			out := make([]byte, n)
			for i := range out {
				if rng.Intn(3) > 0 { // bias toward zeros to exercise zero tails
					out[i] = byte(rng.Intn(256))
				}
			}
			return out
		}

		for iter := 0; iter < 2000; iter++ {
			switch op := rng.Intn(10); op {
			case 0, 1, 2:
				img := randImage()
				seg.SetContents(img)
				ref.set(img)
			case 3:
				// Re-lay the current image with at most one byte changed,
				// sometimes grown by a zero tail: the known pages that
				// still compare equal, a grown partial last page included,
				// are what HashHits counts.
				img := seg.Contents()
				if len(img) > 0 && rng.Intn(2) == 0 {
					img[rng.Intn(len(img))]++
				}
				if rng.Intn(3) == 0 {
					img = append(img, make([]byte, rng.Intn(ps))...)
				}
				seg.SetContents(img)
				ref.set(img)
			case 4:
				off := rng.Intn(5 * ps)
				data := pat(rng.Intn(ps)+1, byte(iter))
				if err := seg.Write(off, data); err != nil {
					t.Fatal(err)
				}
				ref.write(off, data)
			case 5, 6:
				regs := []byte{byte(iter)}
				got, want := seg.Commit(regs), ref.commit(regs)
				if got != want {
					t.Fatalf("seed %d iter %d: commit stats %+v, model %+v", seed, iter, got, want)
				}
			case 7:
				seg.RollbackPages()
				ref.rollback()
			case 8:
				seg = seg.Fork()
				seg.Metrics = m
			default:
				seg.Freeze()
				templates = append(templates, frozen{seg, seg.Contents()})
				seg = seg.Fork()
				seg.Metrics = m
			}
			if got := seg.Contents(); !bytes.Equal(got, ref.mem) {
				t.Fatalf("seed %d iter %d: segment diverged from reference (len %d vs %d)", seed, iter, len(got), len(ref.mem))
			}
			if m.HashHits != ref.hits || m.HashMisses != ref.misses {
				t.Fatalf("seed %d iter %d: hash hits/misses %d/%d, model %d/%d",
					seed, iter, m.HashHits, m.HashMisses, ref.hits, ref.misses)
			}
		}
		if ref.hits == 0 || ref.misses == 0 || len(templates) == 0 {
			t.Fatalf("seed %d: run exercised hits=%d misses=%d templates=%d", seed, ref.hits, ref.misses, len(templates))
		}
		for i, tm := range templates {
			if !bytes.Equal(tm.seg.Contents(), tm.contents) {
				t.Fatalf("seed %d: template %d changed after it was frozen", seed, i)
			}
		}
	}
}
