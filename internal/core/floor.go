package core

import (
	"math"
	"sync"
	"sync/atomic"

	"videorec/internal/topk"
)

// ScoreFloor is the shared stopping threshold of one query that several
// views answer over disjoint corpora — a sharded fan-out. It is the
// threshold of Fagin, Lotem and Naor's TA ("Optimal aggregation algorithms
// for middleware", PODS 2001): it holds the K best exact fused scores any
// view has refined so far and publishes the K-th of them, and every view's
// refine stops once its best remaining bound falls strictly below it.
//
// The floor never prunes a winner. Its scores are real scores of refined
// candidates in the union, so it is at most the merged answer's K-th score
// T*; a winner's bound is at least its score, which is at least T*; and a
// bound equal to the floor is still refined. Ids, scores and both component
// relevances of the merge are exactly those of the floorless merge; only
// Refined and Tightened shrink, and by how much depends on the order in
// which the views offer their scores.
//
// A ScoreFloor is safe for concurrent use by the views of one query. Reset
// readies it for the next query, so a caller can pool it.
type ScoreFloor struct {
	mu   sync.Mutex
	k    int
	best *topk.Selector[float64] // the K best scores offered, under mu
	kth  atomic.Uint64           // math.Float64bits of the K-th best; −Inf until K are held
}

var negInfBits = math.Float64bits(math.Inf(-1))

// NewScoreFloor returns an empty floor for topK results.
func NewScoreFloor(topK int) *ScoreFloor {
	f := &ScoreFloor{best: topk.New(topK, func(a, b float64) bool { return a < b })}
	f.Reset(topK)
	return f
}

// Reset empties the floor for a query of topK results, keeping its storage.
// It must not race with the views of a query still using the floor.
func (f *ScoreFloor) Reset(topK int) {
	f.k = topK
	f.best.Reset(topK)
	f.kth.Store(negInfBits)
}

// load returns the current floor: the K-th best score offered so far, or −Inf
// while fewer than K have been.
func (f *ScoreFloor) load() float64 {
	return math.Float64frombits(f.kth.Load())
}

// offer records one exact fused score of a refined candidate. A score at or
// below the current floor cannot raise it and takes no lock.
func (f *ScoreFloor) offer(score float64) {
	if score <= f.load() {
		return
	}
	f.mu.Lock()
	f.best.Offer(score)
	if f.k > 0 && f.best.Len() == f.k {
		f.kth.Store(math.Float64bits(f.best.Worst()))
	}
	f.mu.Unlock()
}

// WithFloor returns q sharing f: every view that answers the returned query
// stops its refinement against f as well as against its own K-th score, and
// offers f every score it computes. The views must hold disjoint corpora,
// each candidate scored at most once across them, or the floor can overtake
// the merged K-th score. A nil f returns the query without a floor.
func (q Query) WithFloor(f *ScoreFloor) Query {
	q.floor = f
	return q
}
