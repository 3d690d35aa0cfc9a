// Package hashing implements the social-relevance optimization structures of
// §4.2.3: the shift-add-xor class of string hash functions (Equation 7,
// after Ramakrishna & Zobel [21]) and the chained hash table whose elements
// are ⟨key, cno, nextptr⟩ triads mapping a social user name to its
// sub-community id.
package hashing

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
// Serving maps users through the partition itself
// (community.Partition.Lookup); this table is the paper's structure, kept
// for the chained-vs-map ablation.
type Table struct {
	buckets []*entry
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

func (t *Table) bucket(key string) uint32 {
	return ShiftAddXor(key, t.seed, uint32(len(t.buckets)))
}

// Insert maps key to cno. An existing key has its cno updated in place;
// otherwise a new triad is pushed at the head of the appropriate bucket.
func (t *Table) Insert(key string, cno int) {
	b := t.bucket(key)
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
