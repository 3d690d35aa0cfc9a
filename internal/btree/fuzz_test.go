package btree

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// FuzzTreeOps: a byte stream drives interleaved inserts and clones over a
// growing family of trees. A byte with the top bit clear inserts its low six
// bits (a small key space forces duplicate runs across separators and leaf
// boundaries) into the current tree; 10xxxxxx clones the current tree and
// moves on to the clone; 11xxxxxx switches to an older generation, so
// ancestors keep receiving inserts after their descendants forked. After
// every op the current tree's SeekAt must land on its model's first slot >=
// key with the preceding slot < key, and at the end every generation must
// yield exactly its own model's sequence, forwards and backwards, from every
// probe.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 1, 255, 1})
	f.Add([]byte{7, 7, 7, 135, 7, 7, 135, 135})
	f.Add([]byte{7, 7, 7, 7, 7, 128, 7, 7, 7, 128, 7, 9, 192, 7, 7, 7, 7, 193, 8, 8, 8, 8, 8, 8})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 128, 128, 3, 3, 3, 3, 192, 3, 3, 3, 128, 4, 194, 4, 4, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type gen struct {
			tr *Tree[int]
			m  model
		}
		gens := []*gen{{tr: New[int](4)}}
		cur := gens[0]
		for op, b := range ops {
			k := uint64(b & 0x3f)
			switch {
			case b&0x80 == 0:
				cur.tr.Insert(k, op)
				cur.m = cur.m.insert(k, op)
			case b&0x40 == 0:
				if len(gens) == 64 {
					continue
				}
				cur = &gen{tr: cur.tr.Clone(), m: slices.Clone(cur.m)}
				gens = append(gens, cur)
			default:
				cur = gens[int(k)%len(gens)]
			}
			for _, probe := range []uint64{k, k + 1, 0, 0x40} {
				i := sort.Search(len(cur.m), func(i int) bool { return cur.m[i].k >= probe })
				it := cur.tr.SeekAt(probe)
				if it.Valid() != (i < len(cur.m)) {
					t.Fatalf("op %d: SeekAt(%d).Valid() = %v, model slot %d of %d", op, probe, it.Valid(), i, len(cur.m))
				}
				if it.Valid() && (slot{it.Key(), it.Value()}) != cur.m[i] {
					t.Fatalf("op %d: SeekAt(%d) at %d/%d, want model slot %d (%v)", op, probe, it.Key(), it.Value(), i, cur.m[i])
				}
				if !it.Valid() {
					it = seekLast(cur.tr)
				} else if !it.Prev() {
					continue
				}
				if it.Valid() && it.Key() >= probe {
					t.Fatalf("op %d: SeekAt(%d) skipped an earlier slot with key %d", op, probe, it.Key())
				}
			}
		}
		probes := []uint64{0, 7, 8, 31, 0x3f, 0x40}
		for g, gen := range gens {
			checkAgainst(t, fmt.Sprintf("generation %d of %d", g, len(gens)), gen.tr, gen.m, probes)
		}
	})
}
