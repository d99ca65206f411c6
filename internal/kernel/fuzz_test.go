package kernel

import (
	"bytes"
	"testing"
)

// FuzzRestoreProcState: a checkpointed kernel blob that is corrupt or
// truncated must never panic the restore. A blob the restore rejects leaves
// an empty file table; one it accepts must save and restore back to the
// same blob. The checked-in corpus holds the malformed shapes, including a
// negative path length that once sliced blob[40:39].
func FuzzRestoreProcState(f *testing.F) {
	k := New()
	k.WriteFile(0, "a", []byte("aaaa"))
	fd, _, err := k.Call(0, "open", [][]byte{[]byte("a")})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := k.Call(0, "lseek", [][]byte{fd[0], I64(2)}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), k.SaveProcState(0)...))
	f.Add(append([]byte(nil), New().SaveProcState(0)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		k := New()
		k.RestoreProcState(0, blob)
		saved := append([]byte(nil), k.SaveProcState(0)...)
		if !validProcState(blob) {
			if n := Int(saved[0:8]); n != 0 {
				t.Fatalf("rejected blob restored %d file descriptors", n)
			}
			return
		}
		k2 := New()
		k2.RestoreProcState(0, saved)
		if again := k2.SaveProcState(0); !bytes.Equal(again, saved) {
			t.Fatalf("restore/save is not a fixed point:\n%x\n%x", saved, again)
		}
	})
}
