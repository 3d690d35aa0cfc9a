package btree

import "sort"

// Iterator is a position in the tree's key order. It supports forward and
// backward movement — KNN search in the LSB-index expands from the query
// position in both directions. Leaves are not linked to their neighbours (a
// leaf reachable from two trees cannot name one successor), so the iterator
// carries its root-to-leaf path inline and crosses a leaf boundary through
// the lowest ancestor with a child on that side. It is a plain value:
// assignment copies it, and it never allocates. An iterator that has stepped
// off either end stays invalid.
type Iterator[V any] struct {
	leaf  *node[V] // nil when invalid
	idx   int      // slot in leaf
	depth int      // inner nodes above leaf
	path  [maxHeight - 1]step[V]
}

// step is one inner node of the path and the child taken out of it.
type step[V any] struct {
	n  *node[V]
	ci int
}

// SeekAt returns an iterator at the first slot with key >= key, by value, so
// callers can embed iterators in their own reusable structures (the LCP
// walker holds two per query front). The iterator is invalid when every key
// is smaller.
func (t *Tree[V]) SeekAt(key uint64) Iterator[V] {
	// Descend by lower bound: every child left of the first separator >= key
	// holds only smaller keys, so the first slot >= key is in that child or,
	// when the child's own keys all fall short, the very next slot in key
	// order. O(log n) however long the run of duplicates is.
	var it Iterator[V]
	n := t.root
	for n.children != nil {
		ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		it.path[it.depth] = step[V]{n, ci}
		it.depth++
		n = n.children[ci]
	}
	it.leaf = n
	it.idx = sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if it.idx == len(n.keys) {
		it.nextLeaf() // or become invalid
	}
	return it
}

// Valid reports whether the iterator points at a slot.
func (it *Iterator[V]) Valid() bool { return it.leaf != nil }

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
	if it.idx++; it.idx < len(it.leaf.keys) {
		return true
	}
	return it.nextLeaf()
}

// nextLeaf moves to the first slot of the following leaf: up to the lowest
// ancestor with a child to the right, then down that child's left edge. Only
// an empty tree has an empty leaf.
func (it *Iterator[V]) nextLeaf() bool {
	for d := it.depth - 1; d >= 0; d-- {
		s := &it.path[d]
		if s.ci+1 == len(s.n.children) {
			continue
		}
		s.ci++
		n := s.n.children[s.ci]
		for d++; n.children != nil; d++ {
			it.path[d] = step[V]{n, 0}
			n = n.children[0]
		}
		it.leaf, it.idx = n, 0
		return true
	}
	it.leaf = nil
	return false
}

// Prev moves to the preceding slot, reporting whether the iterator is still
// valid.
func (it *Iterator[V]) Prev() bool {
	if it.leaf == nil {
		return false
	}
	if it.idx--; it.idx >= 0 {
		return true
	}
	for d := it.depth - 1; d >= 0; d-- {
		s := &it.path[d]
		if s.ci == 0 {
			continue
		}
		s.ci--
		n := s.n.children[s.ci]
		for d++; n.children != nil; d++ {
			it.path[d] = step[V]{n, len(n.children) - 1}
			n = n.children[len(n.children)-1]
		}
		it.leaf, it.idx = n, len(n.keys)-1
		return true
	}
	it.leaf = nil
	return false
}
