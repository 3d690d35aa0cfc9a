// Package hashing implements the social-relevance optimization structures of
// §4.2.3: the shift-add-xor class of string hash functions (Equation 7,
// after Ramakrishna & Zobel [21]) and the chained hash table whose elements
// are ⟨key, cno, nextptr⟩ triads mapping a social user name to its
// sub-community id.
package hashing

import "videorec/internal/bitset"

// Shift amounts of the shift-add-xor step function. L=5, R=2 are the
// constants recommended in [21] for ASCII keys.
const (
	shiftL = 5
	shiftR = 2
)

// ShiftAddXor computes the shift-add-xor hash of s (Equation 7): the hash is
// seeded with v (init), folds each character c with
// h ← h XOR (h<<L + h>>R + c) (step), and is reduced modulo table size T
// (final). tableSize must be positive.
func ShiftAddXor(s string, seed, tableSize uint32) uint32 {
	h := seed
	for i := 0; i < len(s); i++ {
		h ^= (h << shiftL) + (h >> shiftR) + uint32(s[i])
	}
	return h % tableSize
}

// entry is the ⟨key, cno, nextptr⟩ triad of Figure 4.
type entry struct {
	key  string
	cno  int
	next *entry
}

// Table is a chained hash table mapping user names to sub-community ids.
// New triads are inserted at the head of their bucket, exactly as described
// in §4.2.3. The zero value is not usable; call NewTable.
//
// Tables are shared copy-on-write at chain granularity: Clone copies the
// bucket-head array only, and the first write that lands in a bucket either
// side still shares (Insert, Delete, a ReplaceCno hit) copies that one chain
// before changing it.
type Table struct {
	buckets []*entry
	private bitset.Set // since the last Clone: buckets whose chains were copied; nil before the first
	seed    uint32
	size    int
}

// NewTable allocates a table with nBuckets chains. nBuckets is clamped to at
// least 1; seed selects the member of the shift-add-xor class.
func NewTable(nBuckets int, seed uint32) *Table {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &Table{buckets: make([]*entry, nBuckets), seed: seed}
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// Clone returns an independent copy of the table in O(buckets): the two
// share every chain and both forget which they own, so whichever side writes
// a bucket first copies its chain (triad order preserved) and the other never
// sees the change. Of the receiver only the ownership marks are replaced,
// which Lookup never loads — readers may be probing the receiver during the
// call.
func (t *Table) Clone() *Table {
	cp := *t
	cp.buckets = append([]*entry(nil), t.buckets...)
	t.private, cp.private = bitset.Make(len(t.buckets)), bitset.Make(len(t.buckets))
	return &cp
}

// own makes bucket b's chain private before a write to it.
func (t *Table) own(b uint32) {
	if t.private == nil || t.private.Has(b) {
		return
	}
	t.private.Add(b)
	tail := &t.buckets[b]
	for e := *tail; e != nil; e = e.next {
		ne := &entry{key: e.key, cno: e.cno}
		*tail = ne
		tail = &ne.next
	}
}

// Buckets returns the number of chains.
func (t *Table) Buckets() int { return len(t.buckets) }

func (t *Table) bucket(key string) uint32 {
	return ShiftAddXor(key, t.seed, uint32(len(t.buckets)))
}

// Insert maps key to cno. An existing key has its cno updated in place;
// otherwise a new triad is pushed at the head of the appropriate bucket.
func (t *Table) Insert(key string, cno int) {
	b := t.bucket(key)
	t.own(b)
	for e := t.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			e.cno = cno
			return
		}
	}
	t.buckets[b] = &entry{key: key, cno: cno, next: t.buckets[b]}
	t.size++
}

// Lookup returns the sub-community id of key. The second result reports
// whether the key is present.
func (t *Table) Lookup(key string) (int, bool) {
	for e := t.buckets[t.bucket(key)]; e != nil; e = e.next {
		if e.key == key {
			return e.cno, true
		}
	}
	return 0, false
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key string) bool {
	b := t.bucket(key)
	t.own(b)
	var prev *entry
	for e := t.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			if prev == nil {
				t.buckets[b] = e.next
			} else {
				prev.next = e.next
			}
			t.size--
			return true
		}
		prev = e
	}
	return false
}

// ReplaceCno rewrites every entry with sub-community id old to id new and
// returns the number of entries changed. This is the UpdateIndex step of the
// social-updates maintenance algorithm (Figure 5): a union of two
// sub-communities replaces their ids with a single new id.
func (t *Table) ReplaceCno(old, new int) int {
	n := 0
	for b, head := range t.buckets {
		hit := false
		for e := head; e != nil && !hit; e = e.next {
			hit = e.cno == old
		}
		if !hit {
			continue
		}
		t.own(uint32(b))
		for e := t.buckets[b]; e != nil; e = e.next {
			if e.cno == old {
				e.cno = new
				n++
			}
		}
	}
	return n
}

// Range calls f for every (key, cno) pair until f returns false. Iteration
// order is unspecified.
func (t *Table) Range(f func(key string, cno int) bool) {
	for _, head := range t.buckets {
		for e := head; e != nil; e = e.next {
			if !f(e.key, e.cno) {
				return
			}
		}
	}
}

// ChainStats returns the mean and maximum chain length over non-empty
// buckets — η in the vectorization cost model n·η·β of §4.2.3.
func (t *Table) ChainStats() (mean float64, max int) {
	nonEmpty := 0
	for _, head := range t.buckets {
		n := 0
		for e := head; e != nil; e = e.next {
			n++
		}
		if n > 0 {
			nonEmpty++
			mean += float64(n)
			if n > max {
				max = n
			}
		}
	}
	if nonEmpty > 0 {
		mean /= float64(nonEmpty)
	}
	return mean, max
}
