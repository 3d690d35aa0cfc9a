// Package topk provides bounded top-K selection over a stream of items: a
// fixed-capacity binary heap that keeps the K best items seen so far, in
// O(n log K) time and O(K) space. The query path selects its answers with
// it — refinement's running top-K, the degraded social ranking and the
// sharded merge — where K is the requested list length and items arrive
// one at a time.
//
// Selection is defined by a strict "worse" order. When the order is total
// (every comparison tie-broken), the kept set and Sorted output are exactly
// the first K items of a full sort — the heap changes cost, never results.
package topk

// Selector accumulates the K best items of a stream under a strict total
// order. The zero value is not usable; construct with New.
type Selector[T any] struct {
	k     int
	worse func(a, b T) bool // a ranks strictly below b
	h     []T               // binary min-heap with the worst kept item at the root
}

// New returns a selector keeping the best k items. worse must define a
// strict total order: worse(a, b) reports that a ranks strictly below b
// (a would be evicted before b). k <= 0 keeps nothing.
func New[T any](k int, worse func(a, b T) bool) *Selector[T] {
	s := &Selector[T]{k: k, worse: worse}
	if k > 0 {
		s.h = make([]T, 0, k)
	}
	return s
}

// Reset empties the selector and sets a new capacity, keeping the order
// function and the heap's backing storage. It lets pooled per-query scratch
// reuse one selector across queries without reallocating.
func (s *Selector[T]) Reset(k int) {
	s.k = k
	s.h = s.h[:0]
}

// Offer considers one item: it is kept if fewer than k items are held, or if
// it ranks above the current worst kept item (which it then evicts).
func (s *Selector[T]) Offer(x T) {
	if s.k <= 0 {
		return
	}
	if len(s.h) < s.k {
		s.h = append(s.h, x)
		s.up(len(s.h) - 1)
		return
	}
	if s.worse(s.h[0], x) {
		s.h[0] = x
		s.down(0)
	}
}

// Len returns the number of items currently kept.
func (s *Selector[T]) Len() int { return len(s.h) }

// Worst returns the lowest-ranked kept item — the one a better offer evicts
// once the selector is full. The selector must not be empty.
func (s *Selector[T]) Worst() T { return s.h[0] }

// Sorted drains the selector and returns the kept items best-first in a
// fresh slice (nil when nothing is kept). The selector is empty afterwards.
func (s *Selector[T]) Sorted() []T {
	var dst []T
	if n := len(s.h); n > 0 {
		dst = make([]T, n)
	}
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = s.h[0]
		last := len(s.h) - 1
		s.h[0] = s.h[last]
		s.h = s.h[:last]
		if last > 0 {
			s.down(0)
		}
	}
	return dst
}

func (s *Selector[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.worse(s.h[i], s.h[parent]) {
			return
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		i = parent
	}
}

func (s *Selector[T]) down(i int) {
	n := len(s.h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && s.worse(s.h[l], s.h[worst]) {
			worst = l
		}
		if r < n && s.worse(s.h[r], s.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.h[i], s.h[worst] = s.h[worst], s.h[i]
		i = worst
	}
}
