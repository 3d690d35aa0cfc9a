package core

import (
	"iter"
	"slices"
)

const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// cowVec is a dense-index → T table held in fixed-size pages, shared
// copy-on-write between a published view and the writer's clone: clone
// copies the page directory (one pointer per 256 slots), and the first Set
// or Append that lands in a page the clone does not own copies that page.
// The cloned-from side must never be written again — the Recommender's
// single-writer discipline, the same contract as index.Inverted.
type cowVec[T any] struct {
	pages []*[pageSize]T
	owned []bool // pages[p] was allocated by this vec: writable in place
	n     int
}

// Len returns the number of slots.
func (v *cowVec[T]) Len() int { return v.n }

// At returns slot i, which must be below Len.
func (v *cowVec[T]) At(i uint32) T { return v.pages[i>>pageBits][i%pageSize] }

// All iterates the slots in index order.
func (v *cowVec[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for i := 0; i < v.n; i++ {
			if !yield(i, v.pages[i>>pageBits][i%pageSize]) {
				return
			}
		}
	}
}

// Set replaces slot i, which must be below Len.
func (v *cowVec[T]) Set(i uint32, x T) {
	p := i >> pageBits
	if !v.owned[p] {
		cp := *v.pages[p]
		v.pages[p], v.owned[p] = &cp, true
	}
	v.pages[p][i%pageSize] = x
}

// Append adds a slot at index Len.
func (v *cowVec[T]) Append(x T) {
	if v.n == len(v.pages)*pageSize {
		v.pages = append(v.pages, new([pageSize]T))
		v.owned = append(v.owned, true)
	}
	v.n++
	v.Set(uint32(v.n-1), x)
}

// clone returns the writer's copy: every page shared, none owned.
func (v *cowVec[T]) clone() cowVec[T] {
	return cowVec[T]{pages: slices.Clone(v.pages), owned: make([]bool, len(v.pages)), n: v.n}
}
