package sim

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// recvHWSection returns the receive high-water section of a checkpoint
// image: the sender count and the (sender, mark) pairs after the mode byte,
// input cursor and send sequence.
func recvHWSection(t *testing.T, img []byte) []byte {
	t.Helper()
	body := img[1:]
	pos := 16
	n, err := getI64(body, &pos)
	if err != nil {
		t.Fatal(err)
	}
	return body[16 : pos+16*int(n)]
}

// refSection encodes a reference map the way a checkpoint image must carry
// it: the count, then the pairs in increasing sender order.
func refSection(ref map[int]int64) []byte {
	keys := make([]int, 0, len(ref))
	for s := range ref {
		keys = append(keys, s)
	}
	slices.Sort(keys)
	buf := appendI64(nil, int64(len(ref)))
	for _, s := range keys {
		buf = appendI64(buf, int64(s))
		buf = appendI64(buf, ref[s])
	}
	return buf
}

// TestRecvHWAgainstMap runs random bumpRecvHW / fork / checkpoint / restore
// sequences against a map[int]int64 reference, the representation the
// sorted list replaced: after every operation each sender's high-water mark
// must match the reference, and every checkpoint image must carry the
// reference's sorted encoding. Forks must own their marks: bumping the
// template afterwards leaves the fork untouched.
func TestRecvHWAgainstMap(t *testing.T) {
	const senders = 24
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWorld(seed, &rawState{})
		p := w.Procs[0]
		ref := map[int]int64{}
		var saved []byte
		var savedRef map[int]int64
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 14:
				from, idx := rng.Intn(senders), rng.Int63n(40)-2
				p.bumpRecvHW(from, idx)
				if idx > ref[from] {
					ref[from] = idx
				}
			case r < 16:
				img, err := p.CheckpointImage(false)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := recvHWSection(t, img), refSection(ref); !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: image marks\n%x\nwant\n%x", seed, op, got, want)
				}
				saved, savedRef = img, maps.Clone(ref)
			case r < 18:
				if saved == nil {
					continue
				}
				if err := p.RestoreCheckpointImage(saved); err != nil {
					t.Fatal(err)
				}
				ref = maps.Clone(savedRef)
			default:
				nw, err := w.Fork()
				if err != nil {
					t.Fatal(err)
				}
				np := nw.Procs[0]
				for s := 0; s < senders; s++ {
					p.bumpRecvHW(s, 1<<40)
				}
				for s := 0; s < senders; s++ {
					if got := np.recvHW(s); got != ref[s] {
						t.Fatalf("seed %d op %d: fork sees template's bump of sender %d: %d, want %d", seed, op, s, got, ref[s])
					}
				}
				w, p = nw, np
			}
			for s := -1; s <= senders; s++ {
				if got := p.recvHW(s); got != ref[s] {
					t.Fatalf("seed %d op %d: sender %d mark %d, want %d", seed, op, s, got, ref[s])
				}
			}
			if len(p.RecvHW) != len(ref) {
				t.Fatalf("seed %d op %d: %d marks, reference has %d", seed, op, len(p.RecvHW), len(ref))
			}
		}
	}
}

// TestRestoreRecvHWAllocFree: a restore refills the receive high-water
// marks in place, so a steady-state rollback of a process that has
// consumed from several senders allocates nothing.
func TestRestoreRecvHWAllocFree(t *testing.T) {
	w := NewWorld(1, &rawState{state: []byte("app")})
	p := w.Procs[0]
	for s := 0; s < 8; s++ {
		p.bumpRecvHW(3*s, int64(s+1))
	}
	img, err := p.CheckpointImage(false)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		p.bumpRecvHW(1, 9) // consumed after the checkpoint; the rollback drops it
		if err := p.RestoreCheckpointImage(img); err != nil {
			t.Fatal(err)
		}
	}
	restore()
	if n := testing.AllocsPerRun(200, restore); n != 0 {
		t.Errorf("steady-state restore allocates %.1f times per run, want 0", n)
	}
	if len(p.RecvHW) != 8 || p.recvHW(1) != 0 || p.recvHW(21) != 8 {
		t.Fatalf("restored marks = %v", p.RecvHW)
	}
}
