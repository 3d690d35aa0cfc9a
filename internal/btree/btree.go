// Package btree provides an in-memory persistent B⁺-tree over uint64 keys
// with bidirectional iteration. It is the backbone of the LSB-index [28]:
// Z-order values of LSH keys are stored in the tree and KNN search walks
// outward from the query position looking for the next longest common
// prefix. Duplicate keys are allowed (hash collisions are expected).
//
// The tree is persistent by path copying. Every node carries the stamp of
// the one tree that may change it in place; Clone shares the root and hands
// both trees stamps no node carries yet, so from then on an Insert copies
// the O(log n) nodes on its path that it does not own and leaves every node
// any other tree can reach untouched. Readers of a tree that is no longer
// written — a published view's — therefore need no lock while a clone keeps
// inserting. Entries are never deleted: the LSB forest drops them by
// rebuilding (core's tombstones + compactLSB).
package btree

import (
	"sort"
	"sync/atomic"
)

// maxHeight bounds the root-to-leaf path an Iterator carries inline. Inner
// nodes split into halves of at least 3 children (order ≥ 4), so a tree this
// tall would hold over 10¹¹ entries — a terabyte of keys alone.
const maxHeight = 24

// lastStamp mints stamps. They are unique across the process, not derived
// from the parent's: "this node is mine" must stay false for every other
// tree whatever the clone genealogy — two clones of one parent, a clone of a
// clone, a parent that keeps inserting — and equality with a number nobody
// else holds is the one test that needs no knowledge of it. Advanced only
// through atomic.AddUint64: writers of unrelated trees clone concurrently.
var lastStamp uint64

// Tree is a B⁺-tree mapping uint64 keys to values of type V. The zero value
// is not usable; call New.
type Tree[V any] struct {
	order  int // max keys per node
	root   *node[V]
	size   int
	height int    // nodes on a root-to-leaf path
	stamp  uint64 // nodes carrying it are this tree's to change in place
}

// node is a leaf (children == nil; vals parallel to keys) or an inner node
// (keys are separators: children[i] holds keys in [keys[i-1], keys[i]],
// closed on both sides because a run of equal keys can straddle its
// separator; len(children) == len(keys)+1).
type node[V any] struct {
	stamp    uint64
	keys     []uint64
	vals     []V
	children []*node[V]
}

// New returns an empty tree. order is the maximum number of keys per node
// and is clamped to at least 4.
func New[V any](order int) *Tree[V] {
	if order < 4 {
		order = 4
	}
	t := &Tree[V]{order: order, height: 1, stamp: atomic.AddUint64(&lastStamp, 1)}
	t.root = &node[V]{stamp: t.stamp}
	return t
}

// Len returns the number of stored key/value slots.
func (t *Tree[V]) Len() int { return t.size }

// Clone returns a tree with the same contents in O(1): the two share every
// node, and both take fresh stamps, so each copies a shared node before its
// first change to it and neither ever sees the other's inserts. Of the
// receiver only the stamp word is written, which no reader loads — a
// goroutine may be iterating the receiver during the call. Values are copied
// by assignment (SigEntry payloads are immutable).
func (t *Tree[V]) Clone() *Tree[V] {
	cp := *t
	t.stamp = atomic.AddUint64(&lastStamp, 1)
	cp.stamp = atomic.AddUint64(&lastStamp, 1)
	return &cp
}

// own returns n if this tree may change it in place, else a private copy
// with room for a full node plus the one overflow slot a split needs.
func (t *Tree[V]) own(n *node[V]) *node[V] {
	if n.stamp == t.stamp {
		return n
	}
	cp := &node[V]{stamp: t.stamp, keys: roomy(n.keys, t.order+1)}
	if n.children == nil {
		cp.vals = roomy(n.vals, t.order+1)
	} else {
		cp.children = roomy(n.children, t.order+2)
	}
	return cp
}

// roomy copies s into a slice of capacity c, so the appends of a node's
// lifetime never reallocate.
func roomy[T any](s []T, c int) []T { return append(make([]T, 0, c), s...) }

// Insert stores (key, v). Duplicate keys are kept; the new slot lands after
// existing equal keys.
func (t *Tree[V]) Insert(key uint64, v V) {
	t.root = t.own(t.root)
	if sep, right := t.insert(t.root, key, v); right != nil {
		if t.height == maxHeight {
			panic("btree: tree taller than an iterator's path")
		}
		t.root = &node[V]{stamp: t.stamp, keys: []uint64{sep}, children: []*node[V]{t.root, right}}
		t.height++
	}
	t.size++
}

// insert descends through nodes the tree owns (the caller owns n), returning
// a (separator, new right sibling) pair when n split.
func (t *Tree[V]) insert(n *node[V], key uint64, v V) (uint64, *node[V]) {
	// Upper bound: land after existing duplicates.
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	if n.children == nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		var zero V
		n.vals = append(n.vals, zero)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		if len(n.keys) <= t.order {
			return 0, nil
		}
		mid := len(n.keys) / 2
		right := &node[V]{
			stamp: t.stamp,
			keys:  roomy(n.keys[mid:], t.order+1),
			vals:  roomy(n.vals[mid:], t.order+1),
		}
		clear(n.vals[mid:]) // drop the moved values' references
		n.keys, n.vals = n.keys[:mid], n.vals[:mid]
		return right.keys[0], right
	}
	child := t.own(n.children[i])
	n.children[i] = child
	sep, split := t.insert(child, key, v)
	if split == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = split
	if len(n.keys) <= t.order {
		return 0, nil
	}
	// The middle separator moves up.
	mid := len(n.keys) / 2
	up := n.keys[mid]
	right := &node[V]{
		stamp:    t.stamp,
		keys:     roomy(n.keys[mid+1:], t.order+1),
		children: roomy(n.children[mid+1:], t.order+2),
	}
	clear(n.children[mid+1:])
	n.keys, n.children = n.keys[:mid], n.children[:mid+1]
	return up, right
}
