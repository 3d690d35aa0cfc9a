package core

import (
	"slices"
	"sort"
	"time"

	"videorec/internal/community"
	"videorec/internal/social"
)

// UpdateReport summarizes one ApplyUpdates pass: the maintenance statistics
// of Figure 5 plus the descriptor re-vectorization work, the quantities of
// the Equation 8 cost model, the maintenance wall time and the size of the
// user-interest graph after the pass.
type UpdateReport struct {
	Maintenance        community.Stats
	VideosRevectorized int
	DimensionsTouched  int

	// MaintenanceDuration is the wall time of the Figure 5 pass alone
	// (graph merge, union/split, hook patching) — the portion the CSR
	// rewrite targets, excluding derivation and re-vectorization.
	MaintenanceDuration time.Duration

	// Graph size after the pass: node count, undirected edge count, and the
	// directed overlay entries not yet compacted into the CSR base.
	GraphUsers   int
	GraphEdges   int
	GraphOverlay int
}

// ApplyUpdates ingests a batch of new comments (video id → new commenting
// users) arriving in the current period and runs the Figure 5 maintenance:
//
//  1. new social connections are derived exactly as the UIG defines them
//     (each video's new commenters connect to its prior audience and to each
//     other, one unit of weight per shared video);
//  2. the sub-communities are maintained (union / split) with the hash
//     table patched through the maintenance hooks;
//  3. descriptors of commented videos grow, and every video whose vector
//     touches a changed dimension — or whose descriptor changed, or which
//     holds a user who joined a sub-community — is re-vectorized and
//     re-posted in the inverted files.
func (r *Recommender) ApplyUpdates(newComments map[string][]string) UpdateReport {
	return r.ApplyEdges(r.DeriveConnections(newComments), newComments)
}

// DeriveConnections runs step 1 of the maintenance pass over the videos
// this recommender stores (DeriveFrom with its own records).
func (r *Recommender) DeriveConnections(newComments map[string][]string) []community.Edge {
	r.state.mustBuild()
	return r.DeriveFrom(newComments, r.state.record)
}

// DeriveFrom runs step 1 of the maintenance pass: the new social connections
// a comment batch induces, given each commented video's current record
// (record returns nil for a video nobody stores, whose comments are
// skipped). A sharded deployment resolves every video on the shard that
// holds it and so derives the whole corpus's edge list in one pass.
//
// Accumulation runs over batch-local dense ranks: every participant name is
// ranked by its position in the batch's sorted unique name list, pairs
// become packed uint64 keys, and one sort + run-length count replaces the
// string-pair hash map. Rank order is name order, so the key-sorted output
// is exactly the (U asc, V asc) edge list the map-and-sort implementation
// produced.
func (r *Recommender) DeriveFrom(newComments map[string][]string, record func(id string) *Record) []community.Edge {
	vids := make([]string, 0, len(newComments))
	for vid := range newComments {
		vids = append(vids, vid)
	}
	sort.Strings(vids)

	// Pass 1: resolve each video's fresh commenters (raw, deduped later on
	// integer ranks) and prior audience, and collect the distinct
	// participant names for ranking.
	type group struct {
		raw []string // fresh commenters as given (may repeat, may hold "")
		old []string // capped audience, as stored (may repeat)
	}
	groups := make([]group, 0, len(vids))
	seen := map[string]uint32{} // becomes the rank map after numbering
	for _, vid := range vids {
		rec := record(vid)
		if rec == nil {
			continue
		}
		raw := newComments[vid]
		old := capAudience(rec.Desc.Users(), r.opts.UIGMaxAudience)
		groups = append(groups, group{raw: raw, old: old})
		for _, u := range raw {
			if u != "" {
				seen[u] = 0
			}
		}
		for _, v := range old {
			if v != "" {
				seen[v] = 0
			}
		}
	}
	uniq := make([]string, 0, len(seen))
	for u := range seen {
		uniq = append(uniq, u)
	}
	sort.Strings(uniq)
	for i, u := range uniq {
		seen[u] = uint32(i)
	}

	// Pass 2: accumulate one count per (fresh, old) and (fresh, fresh) pair.
	// Each group's names resolve to ranks once — fresh commenters dedupe on
	// their integer ranks, not on strings — so the quadratic pair emission
	// is pure integer work. Small batches (the common case: n distinct
	// participants with n² counts fitting in a couple of MB) accumulate into
	// a dense n×n matrix, turning the whole derivation into increments plus
	// one ordered sweep — no key buffer, no sort. The matrix is the
	// recommender's own buffer (derivation runs under the writer's lock),
	// all zero between calls: the sweep visits only the rows a batch hit and
	// zeroes each count as it emits it. Larger batches fall back to packed
	// keys with one sort + run-length count. Both produce the identical
	// (U asc, V asc) integer-weight edge list.
	n := len(uniq)
	const denseLimit = 724 // n² uint32 counts ≤ ~2MB
	var counts []uint32    // dense: counts[a*n+b] for a < b
	var rowHit []bool      // dense: row a holds a non-zero count
	var pairs int          // dense: non-zero counts
	var keys []uint64      // fallback: packed rank pairs
	if n <= denseLimit {
		if len(r.pairCounts) < n*n {
			r.pairCounts = make([]uint32, n*n)
		}
		counts, rowHit = r.pairCounts[:n*n], make([]bool, n)
	}
	var freshR, oldR []uint32
	for _, gr := range groups {
		freshR = freshR[:0]
		for _, u := range gr.raw {
			if u != "" {
				freshR = append(freshR, seen[u])
			}
		}
		slices.Sort(freshR)
		freshR = slices.Compact(freshR)
		oldR = oldR[:0]
		for _, v := range gr.old {
			if v == "" {
				oldR = append(oldR, ^uint32(0)) // sentinel: skipped below
			} else {
				oldR = append(oldR, seen[v])
			}
		}
		for i, ru := range freshR {
			for _, rv := range oldR {
				if rv == ^uint32(0) || rv == ru {
					continue
				}
				if counts != nil {
					a, b := ru, rv
					if a > b {
						a, b = b, a
					}
					c := &counts[int(a)*n+int(b)]
					if *c == 0 {
						rowHit[a] = true
						pairs++
					}
					*c++
				} else {
					keys = append(keys, pairKey(ru, rv))
				}
			}
			// freshR is sorted and distinct, so ru < rv here: the pair is
			// already canonical.
			for _, rv := range freshR[i+1:] {
				if counts != nil {
					c := &counts[int(ru)*n+int(rv)]
					if *c == 0 {
						rowHit[ru] = true
						pairs++
					}
					*c++
				} else {
					keys = append(keys, pairKey(ru, rv))
				}
			}
		}
	}

	if counts != nil {
		edges := make([]community.Edge, 0, pairs)
		for a := 0; a < n; a++ {
			if !rowHit[a] {
				continue
			}
			row := counts[a*n : (a+1)*n]
			for b := a + 1; b < n; b++ {
				if c := row[b]; c != 0 {
					edges = append(edges, community.Edge{U: uniq[a], V: uniq[b], W: float64(c)})
					row[b] = 0
				}
			}
		}
		return edges
	}

	slices.Sort(keys)
	edges := make([]community.Edge, 0, len(keys))
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		edges = append(edges, community.Edge{
			U: uniq[keys[i]>>32],
			V: uniq[uint32(keys[i])],
			W: float64(j - i),
		})
		i = j
	}
	return edges
}

func pairKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// ApplyEdges runs steps 2–3 of the maintenance pass against an explicit
// edge list: sub-community maintenance, then descriptor growth and
// re-vectorization. ApplyUpdates derives the edges and calls this; journal
// replay and replicas of a shard call it with the batch's global edge list
// as the shard journaled it, along with only the shard's own slice of the
// comments (comments for videos it does not hold are ignored).
func (r *Recommender) ApplyEdges(edges []community.Edge, newComments map[string][]string) UpdateReport {
	r.state.mustBuild()
	rep := r.social.Maintain(edges)
	rep.VideosRevectorized = r.ApplyComments(newComments)
	return rep
}

// ApplyComments runs step 3 of the maintenance pass after the social
// state's latest Maintain: it adopts the maintained partition and table,
// grows the descriptors of the commented videos this recommender stores, and
// re-vectorizes and re-posts those, every video holding a user the pass gave
// a first sub-community, and every video posted under a touched dimension. It reads the Social and writes only this
// recommender, so the shards sharing one Social run it in parallel. It
// returns the number of videos re-vectorized.
func (r *Recommender) ApplyComments(newComments map[string][]string) int {
	r.state.mustBuild()
	r.beforeWrite()
	s := r.state
	s.adoptSocial(r.social)

	// The live commented videos, every holder of a user the pass assigned for
	// the first time, and — posted ⇔ Vec[d] > 0 — every posting of a touched
	// dimension. Dirty tracking is by dense index; re-posting in ascending
	// index order keeps the sorted posting-list edits cache-friendly.
	var dirty []uint32
	for vid := range newComments {
		if i, ok := s.index(vid); ok && s.recs.At(i) != nil {
			dirty = append(dirty, i)
		}
	}
	for _, u := range r.social.entered {
		dirty = append(dirty, r.holders[u]...)
	}
	dirty = append(dirty, s.touchedPostings(r.social.touched)...)
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	s.inv.Grow(s.part.Dim)
	var gone social.Vector // the dimensions a video leaves, reused across the loop
	for _, i := range dirty {
		// A published view may hold the old record: replace, never edit.
		cp := *s.recs.At(i)
		if fresh, ok := newComments[cp.ID]; ok {
			old := cp.Desc
			cp.Desc = cp.Desc.Add(fresh...)
			for _, u := range fresh {
				// A fresh user not held before joins once: i is then last.
				if h := r.holders[u]; u != "" && !old.Contains(u) && (len(h) == 0 || h[len(h)-1] != i) {
					r.holders[u] = append(h, i)
				}
			}
		}
		// Unpost only where the new vector stops posting; Add rewrites the
		// count in the lists that already hold the video, so a posting whose
		// membership and count did not change copies no posting list.
		gone = append(gone[:0], cp.Vec...)
		cp.Vec = social.Vectorize(cp.Desc, s.table.Lookup, s.part.Dim)
		for d := range gone {
			if d < len(cp.Vec) && cp.Vec[d] > 0 {
				gone[d] = 0
			}
		}
		s.inv.Remove(i, gone)
		s.inv.Add(i, cp.Vec)
		s.setRecord(i, &cp)
	}
	return len(dirty)
}

// touchedPostings lists the videos posted under any of the given dimensions,
// unsorted and with repeats: O(postings of the touched lists), not a pass
// over the corpus.
func (v *View) touchedPostings(touched map[int]bool) []uint32 {
	var out []uint32
	for d := range touched {
		out = append(out, v.inv.Postings(d)...)
	}
	return out
}

// VideosPerDim reports how many videos each inverted-file dimension holds —
// the N_ui / N_si inputs of the Equation 8 cost model.
func (r *Recommender) VideosPerDim() []int { return r.state.VideosPerDim() }

// GraphStats reports the current user-interest graph size: nodes, undirected
// edges, and directed overlay entries awaiting CSR compaction. All zero
// before BuildSocial; the overlay is 0 right after BuildSocial or a load
// from a snapshot, which build the whole graph as one CSR.
func (r *Recommender) GraphStats() (users, edges, overlay int) {
	if r.social == nil {
		return 0, 0, 0
	}
	g := r.social.graph
	return g.NumUsers(), g.NumEdges(), g.OverlayLen()
}
