package btree

import "sort"

// Iterator is a position in the tree's leaf chain. It supports forward and
// backward movement — KNN search in the LSB-index expands from the query
// position in both directions.
type Iterator[V any] struct {
	leaf *leaf[V]
	idx  int
}

// Seek returns an iterator at the first slot with key >= key. The iterator
// is invalid when every key is smaller.
func (t *Tree[V]) Seek(key uint64) *Iterator[V] {
	it := t.SeekAt(key)
	return &it
}

// SeekAt is Seek returning the iterator by value, for callers that embed
// iterators in their own reusable structures (the LCP walker holds two per
// query front) and must not allocate per seek.
func (t *Tree[V]) SeekAt(key uint64) Iterator[V] {
	// Descend by lower bound. Child i of an inner node holds keys in
	// [keys[i-1], keys[i]] — closed on both sides, because a run of equal keys
	// can straddle its separator — so every child left of the first separator
	// >= key holds only smaller keys, and the first slot >= key is in that
	// child or, when the child's own keys all fall short, the very next slot
	// in the leaf chain. O(log n) however long the run of duplicates is.
	n := t.root
	for {
		in, ok := n.(*inner[V])
		if !ok {
			break
		}
		n = in.children[sort.Search(len(in.keys), func(i int) bool { return in.keys[i] >= key })]
	}
	lf := n.(*leaf[V])
	i := sort.Search(len(lf.keys), func(i int) bool { return lf.keys[i] >= key })
	it := Iterator[V]{leaf: lf, idx: i}
	if i == len(lf.keys) {
		it.Next() // roll over to the next leaf (or become invalid)
	}
	return it
}

// SeekFirst positions at the smallest key.
func (t *Tree[V]) SeekFirst() *Iterator[V] {
	n := t.root
	for {
		in, ok := n.(*inner[V])
		if !ok {
			break
		}
		n = in.children[0]
	}
	return &Iterator[V]{leaf: n.(*leaf[V]), idx: 0}
}

// SeekLast positions at the largest key.
func (t *Tree[V]) SeekLast() *Iterator[V] {
	n := t.root
	for {
		in, ok := n.(*inner[V])
		if !ok {
			break
		}
		n = in.children[len(in.children)-1]
	}
	lf := n.(*leaf[V])
	return &Iterator[V]{leaf: lf, idx: len(lf.keys) - 1}
}

// Valid reports whether the iterator points at a slot.
func (it *Iterator[V]) Valid() bool {
	return it.leaf != nil && it.idx >= 0 && it.idx < len(it.leaf.keys)
}

// Key returns the key at the current slot. The iterator must be Valid.
func (it *Iterator[V]) Key() uint64 { return it.leaf.keys[it.idx] }

// Value returns the value at the current slot. The iterator must be Valid.
func (it *Iterator[V]) Value() V { return it.leaf.vals[it.idx] }

// Next advances to the following slot, reporting whether the iterator is
// still valid.
func (it *Iterator[V]) Next() bool {
	if it.leaf == nil {
		return false
	}
	it.idx++
	for it.leaf != nil && it.idx >= len(it.leaf.keys) {
		it.leaf = it.leaf.next
		it.idx = 0
	}
	return it.Valid()
}

// Prev moves to the preceding slot, reporting whether the iterator is still
// valid.
func (it *Iterator[V]) Prev() bool {
	if it.leaf == nil {
		return false
	}
	it.idx--
	for it.leaf != nil && it.idx < 0 {
		it.leaf = it.leaf.prev
		if it.leaf != nil {
			it.idx = len(it.leaf.keys) - 1
		}
	}
	return it.Valid()
}

// Clone returns an independent copy of the iterator position.
func (it *Iterator[V]) Clone() *Iterator[V] {
	c := *it
	return &c
}

// AscendRange calls f for every slot with lo <= key < hi in ascending order,
// stopping early if f returns false.
func (t *Tree[V]) AscendRange(lo, hi uint64, f func(key uint64, v V) bool) {
	for it := t.Seek(lo); it.Valid() && it.Key() < hi; it.Next() {
		if !f(it.Key(), it.Value()) {
			return
		}
	}
}

// Ascend calls f for every slot in ascending key order, stopping early if f
// returns false.
func (t *Tree[V]) Ascend(f func(key uint64, v V) bool) {
	for it := t.SeekFirst(); it.Valid(); it.Next() {
		if !f(it.Key(), it.Value()) {
			return
		}
	}
}

// Descend calls f for every slot in descending key order, stopping early if
// f returns false.
func (t *Tree[V]) Descend(f func(key uint64, v V) bool) {
	for it := t.SeekLast(); it.Valid(); it.Prev() {
		if !f(it.Key(), it.Value()) {
			return
		}
	}
}

// DescendRange calls f for every slot with lo < key <= hi in descending
// order, stopping early if f returns false.
func (t *Tree[V]) DescendRange(hi, lo uint64, f func(key uint64, v V) bool) {
	it := t.Seek(hi)
	switch {
	case it.Valid() && it.Key() == hi:
		// start at the last duplicate of hi
		for {
			next := it.Clone()
			if !next.Next() || next.Key() != hi {
				break
			}
			it = next
		}
	default:
		// first key > hi (or past the end) — step back to <= hi
		if !it.Valid() {
			it = t.SeekLast()
		} else if !it.Prev() {
			return
		}
	}
	for ; it.Valid() && it.Key() > lo; it.Prev() {
		if it.Key() > hi {
			continue
		}
		if !f(it.Key(), it.Value()) {
			return
		}
	}
}
