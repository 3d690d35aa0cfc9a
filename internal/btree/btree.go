// Package btree provides an in-memory B⁺-tree over uint64 keys with linked
// leaves and bidirectional iteration. It is the backbone of the LSB-index
// [28]: Z-order values of LSH keys are stored in the tree and KNN search
// walks outward from the query position looking for the next longest common
// prefix. Duplicate keys are allowed (hash collisions are expected).
package btree

import "sort"

// Tree is a B⁺-tree mapping uint64 keys to values of type V. The zero value
// is not usable; call New.
type Tree[V any] struct {
	order int // max keys per node
	root  node[V]
	size  int
}

// New returns an empty tree. order is the maximum number of keys per node
// and is clamped to at least 4.
func New[V any](order int) *Tree[V] {
	if order < 4 {
		order = 4
	}
	return &Tree[V]{order: order, root: &leaf[V]{}}
}

// Len returns the number of stored key/value slots.
func (t *Tree[V]) Len() int { return t.size }

type node[V any] interface {
	isLeaf() bool
}

type leaf[V any] struct {
	keys       []uint64
	vals       []V
	prev, next *leaf[V]
}

func (*leaf[V]) isLeaf() bool { return true }

type inner[V any] struct {
	keys     []uint64  // separators: children[i] holds keys < keys[i]
	children []node[V] // len(children) == len(keys)+1
}

func (*inner[V]) isLeaf() bool { return false }

// childIndex routes key k to the child that may contain it: the first
// separator strictly greater than k.
func (in *inner[V]) childIndex(k uint64) int {
	return sort.Search(len(in.keys), func(i int) bool { return in.keys[i] > k })
}

// Insert stores (key, v). Duplicate keys are kept; the new slot lands after
// existing equal keys.
func (t *Tree[V]) Insert(key uint64, v V) {
	nk, nn := t.insert(t.root, key, v)
	if nn != nil {
		t.root = &inner[V]{keys: []uint64{nk}, children: []node[V]{t.root, nn}}
	}
	t.size++
}

// insert descends, returning a (separator, newNode) pair when the child
// split.
func (t *Tree[V]) insert(n node[V], key uint64, v V) (uint64, node[V]) {
	switch nd := n.(type) {
	case *leaf[V]:
		// Upper bound: append after existing duplicates.
		i := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] > key })
		nd.keys = append(nd.keys, 0)
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = key
		var zero V
		nd.vals = append(nd.vals, zero)
		copy(nd.vals[i+1:], nd.vals[i:])
		nd.vals[i] = v
		if len(nd.keys) <= t.order {
			return 0, nil
		}
		// Split.
		mid := len(nd.keys) / 2
		right := &leaf[V]{
			keys: append([]uint64(nil), nd.keys[mid:]...),
			vals: append([]V(nil), nd.vals[mid:]...),
		}
		nd.keys = nd.keys[:mid]
		nd.vals = nd.vals[:mid]
		right.next = nd.next
		right.prev = nd
		if nd.next != nil {
			nd.next.prev = right
		}
		nd.next = right
		return right.keys[0], right
	case *inner[V]:
		ci := nd.childIndex(key)
		sk, sn := t.insert(nd.children[ci], key, v)
		if sn == nil {
			return 0, nil
		}
		nd.keys = append(nd.keys, 0)
		copy(nd.keys[ci+1:], nd.keys[ci:])
		nd.keys[ci] = sk
		nd.children = append(nd.children, nil)
		copy(nd.children[ci+2:], nd.children[ci+1:])
		nd.children[ci+1] = sn
		if len(nd.keys) <= t.order {
			return 0, nil
		}
		// Split inner: middle separator moves up.
		mid := len(nd.keys) / 2
		upKey := nd.keys[mid]
		right := &inner[V]{
			keys:     append([]uint64(nil), nd.keys[mid+1:]...),
			children: append([]node[V](nil), nd.children[mid+1:]...),
		}
		nd.keys = nd.keys[:mid]
		nd.children = nd.children[:mid+1]
		return upKey, right
	}
	panic("btree: unknown node type")
}

// Get returns the first value stored under key.
func (t *Tree[V]) Get(key uint64) (V, bool) {
	it := t.Seek(key)
	if it.Valid() && it.Key() == key {
		return it.Value(), true
	}
	var zero V
	return zero, false
}

// Delete removes one slot holding key, reporting whether a slot was removed.
// Which of several equal keys goes is unspecified: a run that straddles a
// separator loses a slot from its rightmost leaf first.
func (t *Tree[V]) Delete(key uint64) bool {
	removed := t.delete(t.root, key)
	if !removed {
		return false
	}
	t.size--
	// Collapse a root inner node with a single child.
	if in, ok := t.root.(*inner[V]); ok && len(in.children) == 1 {
		t.root = in.children[0]
	}
	return true
}

func (t *Tree[V]) minKeys() int { return t.order / 2 }

// delete removes one slot with key under n and rebalances children on the
// way out.
func (t *Tree[V]) delete(n node[V], key uint64) bool {
	switch nd := n.(type) {
	case *leaf[V]:
		i := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] >= key })
		if i >= len(nd.keys) || nd.keys[i] != key {
			return false
		}
		nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
		nd.vals = append(nd.vals[:i], nd.vals[i+1:]...)
		return true
	case *inner[V]:
		// A slot with key normally sits in the child at childIndex(key), but
		// duplicate keys equal to separators can spill into children further
		// left. Probe leftward while the adjacent separator still equals key.
		ci := nd.childIndex(key)
		for probe := ci; probe >= 0; probe-- {
			if t.delete(nd.children[probe], key) {
				t.rebalance(nd, probe)
				return true
			}
			if probe == 0 || nd.keys[probe-1] != key {
				return false
			}
		}
		return false
	}
	panic("btree: unknown node type")
}

// rebalance fixes child ci of parent after a deletion left it under-full.
func (t *Tree[V]) rebalance(parent *inner[V], ci int) {
	child := parent.children[ci]
	if t.nodeLen(child) >= t.minKeys() {
		return
	}
	// Try borrowing from a sibling, else merge.
	if ci > 0 && t.nodeLen(parent.children[ci-1]) > t.minKeys() {
		t.borrowLeft(parent, ci)
		return
	}
	if ci < len(parent.children)-1 && t.nodeLen(parent.children[ci+1]) > t.minKeys() {
		t.borrowRight(parent, ci)
		return
	}
	if ci > 0 {
		t.merge(parent, ci-1)
	} else if ci < len(parent.children)-1 {
		t.merge(parent, ci)
	}
}

func (t *Tree[V]) nodeLen(n node[V]) int {
	if l, ok := n.(*leaf[V]); ok {
		return len(l.keys)
	}
	return len(n.(*inner[V]).keys)
}

func (t *Tree[V]) borrowLeft(parent *inner[V], ci int) {
	switch child := parent.children[ci].(type) {
	case *leaf[V]:
		left := parent.children[ci-1].(*leaf[V])
		n := len(left.keys)
		child.keys = append([]uint64{left.keys[n-1]}, child.keys...)
		child.vals = append([]V{left.vals[n-1]}, child.vals...)
		left.keys = left.keys[:n-1]
		left.vals = left.vals[:n-1]
		parent.keys[ci-1] = child.keys[0]
	case *inner[V]:
		left := parent.children[ci-1].(*inner[V])
		n := len(left.keys)
		child.keys = append([]uint64{parent.keys[ci-1]}, child.keys...)
		child.children = append([]node[V]{left.children[n]}, child.children...)
		parent.keys[ci-1] = left.keys[n-1]
		left.keys = left.keys[:n-1]
		left.children = left.children[:n]
	}
}

func (t *Tree[V]) borrowRight(parent *inner[V], ci int) {
	switch child := parent.children[ci].(type) {
	case *leaf[V]:
		right := parent.children[ci+1].(*leaf[V])
		child.keys = append(child.keys, right.keys[0])
		child.vals = append(child.vals, right.vals[0])
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		parent.keys[ci] = right.keys[0]
	case *inner[V]:
		right := parent.children[ci+1].(*inner[V])
		child.keys = append(child.keys, parent.keys[ci])
		child.children = append(child.children, right.children[0])
		parent.keys[ci] = right.keys[0]
		right.keys = right.keys[1:]
		right.children = right.children[1:]
	}
}

// merge folds child ci+1 of parent into child ci.
func (t *Tree[V]) merge(parent *inner[V], ci int) {
	switch left := parent.children[ci].(type) {
	case *leaf[V]:
		right := parent.children[ci+1].(*leaf[V])
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		if right.next != nil {
			right.next.prev = left
		}
	case *inner[V]:
		right := parent.children[ci+1].(*inner[V])
		left.keys = append(left.keys, parent.keys[ci])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.keys = append(parent.keys[:ci], parent.keys[ci+1:]...)
	parent.children = append(parent.children[:ci+1], parent.children[ci+2:]...)
}
