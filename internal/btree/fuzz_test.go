package btree

import (
	"sort"
	"testing"
)

// FuzzTreeOps: a byte stream drives interleaved inserts/deletes; the tree
// must always agree with a sorted-slice reference — after every op SeekAt
// must land on the reference's first slot >= key, with nothing >= key before
// it in the leaf chain — and keep its leaf chain consistent.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 1, 255, 1})
	f.Add([]byte{7, 7, 7, 135, 7, 7, 135, 135})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New[int](4)
		var ref []uint64
		for op, b := range ops {
			k := uint64(b & 0x3f) // small key space forces duplicates
			if b&0x80 == 0 {
				tr.Insert(k, int(k))
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = k
			} else {
				got := tr.Delete(k)
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
				want := i < len(ref) && ref[i] == k
				if got != want {
					t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
				}
				if want {
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
			for _, probe := range []uint64{k, k + 1, 0, 0x40} {
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= probe })
				it := tr.SeekAt(probe)
				if it.Valid() != (i < len(ref)) {
					t.Fatalf("op %d: SeekAt(%d).Valid() = %v, reference slot %d of %d", op, probe, it.Valid(), i, len(ref))
				}
				if it.Valid() && it.Key() != ref[i] {
					t.Fatalf("op %d: SeekAt(%d) at key %d, want reference slot %d (key %d)", op, probe, it.Key(), i, ref[i])
				}
				if !it.Valid() {
					it = *tr.SeekLast()
				} else if !it.Prev() {
					continue
				}
				if it.Valid() && it.Key() >= probe {
					t.Fatalf("op %d: SeekAt(%d) skipped an earlier slot with key %d", op, probe, it.Key())
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
		}
		var scan []uint64
		tr.Ascend(func(k uint64, v int) bool {
			scan = append(scan, k)
			return true
		})
		if len(scan) != len(ref) {
			t.Fatalf("scan %d keys, want %d", len(scan), len(ref))
		}
		for i := range ref {
			if scan[i] != ref[i] {
				t.Fatalf("scan[%d] = %d, want %d", i, scan[i], ref[i])
			}
		}
		// Backward walk must mirror forward.
		var back []uint64
		for it := tr.SeekLast(); it.Valid(); it.Prev() {
			back = append(back, it.Key())
		}
		for i := range back {
			if back[i] != scan[len(scan)-1-i] {
				t.Fatal("leaf chain inconsistent")
			}
		}
	})
}
