// Package oracle is the reference ranker: the paper's Equation 9 rendered by
// brute force over plain maps and slices, with no index, no candidate budget
// and no copy-on-write. Every stored clip is scored against the query — κJ
// (Equation 4) for content and, for social relevance, either the exact set
// Jaccard sJ (Equation 5) or its SAR approximation s̃J (Equation 6) over
// sub-community histograms — the two are fused with ω, and the clips are
// ranked under (score desc, id asc). ω = 0 is the content-only CR baseline
// and ω = 1 the social-only SR baseline of §5.
//
// It shares only the kernels (signature, social, community) with the engine,
// which makes it an oracle: tests hold every deployment's answers to it bit
// for bit, and the experiments time it as Figure 12(a)'s CSF and CSF-SAR.
package oracle

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"videorec/internal/community"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// Record is one clip as the oracle sees it — a stored clip, or the query
// Q = (q_f, q_s) of §3: its compiled signature series and its social
// descriptor.
type Record struct {
	ID       string
	Compiled *signature.CompiledSeries
	Desc     social.Descriptor
}

// Result is one ranked clip with its fused score and both component
// relevances.
type Result struct {
	VideoID string
	Score   float64
	Content float64
	Social  float64
}

// Social selects how the oracle computes social relevance.
type Social int

const (
	// SAR is s̃J over sub-community histograms, each user mapped through the
	// partition's assignment.
	SAR Social = iota
	// SARDictionary is s̃J with the query's users mapped by a linear scan of a
	// (user, sub-community) dictionary: the vectorization the paper's hashed
	// lookup replaces (CSF-SAR). The dictionary maps every user as the
	// partition does, so the scores equal SAR's; only the cost differs.
	SARDictionary
	// Exact is the set Jaccard sJ, computed by the quadratic set comparison
	// of the unoptimized CSF.
	Exact
)

// Oracle ranks one fixed corpus. It is immutable after New and safe for
// concurrent use.
type Oracle struct {
	recs []Record        // sorted by id
	vecs []social.Vector // recs[i]'s SAR histogram

	assign map[string]int // user → sub-community
	dim    int
	users  []string // assign's users, sorted: the dictionary SARDictionary scans

	matchThreshold float64
}

// New builds an oracle over recs, with users assigned to sub-communities as
// part assigns them. matchThreshold is κJ's SimC level for pair matching.
func New(recs []Record, part *community.Partition, matchThreshold float64) *Oracle {
	o := &Oracle{
		recs:           slices.Clone(recs),
		assign:         part.AssignMap(),
		dim:            part.Dim,
		matchThreshold: matchThreshold,
	}
	slices.SortFunc(o.recs, func(a, b Record) int { return strings.Compare(a.ID, b.ID) })
	o.users = slices.Sorted(maps.Keys(o.assign))
	o.vecs = make([]social.Vector, len(o.recs))
	for i, r := range o.recs {
		o.vecs[i] = o.Vectorize(r.Desc, SAR)
	}
	return o
}

// Query returns a stored clip, to query with.
func (o *Oracle) Query(id string) (Record, bool) {
	i, ok := slices.BinarySearchFunc(o.recs, id, func(r Record, id string) int { return strings.Compare(r.ID, id) })
	if !ok {
		return Record{}, false
	}
	return o.recs[i], true
}

// Vectorize is a descriptor's sub-community histogram, each user looked up
// in the partition's assignment (SAR and Exact) or by a linear dictionary
// scan (SARDictionary). Unassigned users count nowhere.
func (o *Oracle) Vectorize(d social.Descriptor, s Social) social.Vector {
	lookup := func(u string) (int, bool) {
		c, ok := o.assign[u]
		return c, ok
	}
	if s == SARDictionary {
		lookup = func(u string) (int, bool) {
			for _, x := range o.users {
				if x == u {
					return o.assign[u], true
				}
			}
			return 0, false
		}
	}
	return social.Vectorize(d, lookup, o.dim)
}

// Content returns κJ between the query and every stored clip, in id order.
func (o *Oracle) Content(q Record) []float64 {
	out := make([]float64, len(o.recs))
	for i, r := range o.recs {
		out[i] = signature.KJCompiled(q.Compiled, r.Compiled, o.matchThreshold)
	}
	return out
}

// SocialRelevance returns the social relevance between the query and every
// stored clip, in id order.
func (o *Oracle) SocialRelevance(q Record, s Social) []float64 {
	out := make([]float64, len(o.recs))
	if s == Exact {
		for i, r := range o.recs {
			out[i] = naiveJaccard(q.Desc, r.Desc)
		}
		return out
	}
	qv := o.Vectorize(q.Desc, s)
	for i := range o.recs {
		out[i] = social.ApproxJaccard(qv, o.vecs[i])
	}
	return out
}

// Fuse ranks the stored clips by FJ = (1−ω)·κJ + ω·social (Equation 9) from
// per-clip relevances in id order (Content's and SocialRelevance's), leaving
// out the excluded ids, and returns the best k under (score desc, id asc).
func (o *Oracle) Fuse(content, soc []float64, omega float64, k int, exclude ...string) []Result {
	all := make([]Result, 0, len(o.recs))
	for i, r := range o.recs {
		if slices.Contains(exclude, r.ID) {
			continue
		}
		all = append(all, Result{
			VideoID: r.ID,
			Score:   (1-omega)*content[i] + omega*soc[i],
			Content: content[i],
			Social:  soc[i],
		})
	}
	return Top(all, k)
}

// Top reorders rs under (score desc, id asc) and returns its best k.
func Top(rs []Result, k int) []Result {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Score != rs[b].Score {
			return rs[a].Score > rs[b].Score
		}
		return rs[a].VideoID < rs[b].VideoID
	})
	return rs[:min(k, len(rs))]
}

// Rank is Fuse over the query's content and social relevances.
func (o *Oracle) Rank(q Record, omega float64, s Social, k int, exclude ...string) []Result {
	return o.Fuse(o.Content(q), o.SocialRelevance(q, s), omega, k, exclude...)
}

// naiveJaccard is the quadratic set comparison the paper attributes to the
// unoptimized sJ computation ("the computation complexity of the measure is
// quadratic to the number of elements", §4.2.1), so that timing the Exact
// oracle measures what the paper measured; social.Jaccard is the linear merge.
func naiveJaccard(a, b social.Descriptor) float64 {
	au, bu := a.Users(), b.Users()
	if len(au) == 0 && len(bu) == 0 {
		return 0
	}
	inter := 0
	for _, x := range au {
		for _, y := range bu {
			if x == y {
				inter++
				break
			}
		}
	}
	union := len(au) + len(bu) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
