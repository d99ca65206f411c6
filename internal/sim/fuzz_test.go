package sim

import (
	"bytes"
	"testing"
)

// rawState is a program whose state is the bytes it was last restored
// from, so any application section an image carries round-trips.
type rawState struct{ state []byte }

func (r *rawState) Name() string         { return "raw" }
func (r *rawState) Init(ctx *Ctx) error  { return nil }
func (r *rawState) Step(ctx *Ctx) Status { return Done }
func (r *rawState) MarshalState() ([]byte, error) {
	return append([]byte(nil), r.state...), nil
}
func (r *rawState) UnmarshalState(d []byte) error {
	r.state = append(r.state[:0], d...)
	return nil
}
func (r *rawState) Fork() (Program, error) {
	return &rawState{state: append([]byte(nil), r.state...)}, nil
}

// FuzzRestoreCheckpointImage: a corrupt or truncated checkpoint image must
// never panic the restore. An image the restore rejects leaves the
// process's session state, receive high-water marks and application state
// as they were; one it accepts leaves sorted marks, and re-imaging the
// process reproduces the image's session header, marks and application
// section byte for byte. The checked-in corpus holds the malformed shapes
// that once panicked — a negative sender count, a sender count of 2⁶⁰, and
// application and kernel lengths of MaxInt64-4 — and senders out of order,
// which the sorted high-water list must never hold.
func FuzzRestoreCheckpointImage(f *testing.F) {
	w := NewWorld(1, &rawState{state: []byte("app")})
	p := w.Procs[0]
	p.InputCursor, p.SendSeq = 3, 9
	p.bumpRecvHW(2, 5)
	p.bumpRecvHW(0, 7)
	img, err := p.CheckpointImage(false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		w := NewWorld(1, &rawState{state: []byte("before")})
		p := w.Procs[0]
		p.InputCursor, p.SendSeq = 4, 11
		p.bumpRecvHW(1, 3)
		before, err := p.CheckpointImage(false)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RestoreCheckpointImage(img); err != nil {
			after, err := p.CheckpointImage(false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("rejected image (%v) changed the process:\n%x\n%x", err, before, after)
			}
			return
		}
		for i := 1; i < len(p.RecvHW); i++ {
			if p.RecvHW[i-1].From >= p.RecvHW[i].From {
				t.Fatalf("restored marks out of order: %v", p.RecvHW)
			}
		}
		again, err := p.CheckpointImage(false)
		if err != nil {
			t.Fatal(err)
		}
		// Without an OS the kernel section re-images empty; everything
		// between the mode byte and it must match the accepted image.
		body := len(again) - 8
		if body > len(img) || !bytes.Equal(again[1:body], img[1:body]) {
			t.Fatalf("re-image differs from the accepted image:\n%x\n%x", img, again)
		}
	})
}

// FuzzDecodeParts: decoding logged syscall results never panics on
// malformed input, and it is EncodeParts' inverse — on the parts any input
// decodes to, and on parts split out of the input. The checked-in corpus
// holds a part count of −1 and a part length of −1, which once panicked.
func FuzzDecodeParts(f *testing.F) {
	f.Add(EncodeParts([][]byte{{1, 2}, nil, {3}}))
	f.Add(EncodeParts(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip := func(parts [][]byte) {
			back := DecodeParts(EncodeParts(parts))
			if len(back) != len(parts) {
				t.Fatalf("round trip of %d parts decoded %d", len(parts), len(back))
			}
			for i := range parts {
				if !bytes.Equal(back[i], parts[i]) {
					t.Fatalf("part %d: round trip %x, want %x", i, back[i], parts[i])
				}
			}
		}
		parts := DecodeParts(data)
		if len(data) >= 8 && len(parts) > len(data)/8 {
			t.Fatalf("%d parts decoded from %d bytes", len(parts), len(data))
		}
		roundTrip(parts)
		roundTrip(bytes.Split(data, []byte{0}))
	})
}
