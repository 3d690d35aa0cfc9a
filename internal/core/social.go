package core

import (
	"fmt"
	"math"
	"time"

	"videorec/internal/community"
)

// Social is the sub-community half of the recommender: the user interest
// graph, its Figure 5 maintainer and the partition, which is the only user →
// sub-community map. A single engine owns one; every shard of a sharded
// deployment points at the same one, so a batch is maintained once and each
// shard only re-vectorizes its own records against it.
//
// Between passes a Social is immutable: views reference its partition, and
// a pass clones it before changing it, so a published view keeps answering
// from what it froze. No view reaches the graph or the maintainer, which
// holds the dimensions and users the latest pass touched.
type Social struct {
	graph *community.Graph
	maint *community.Maintainer
	part  *community.Partition
}

// NewSocial builds the social machinery over a per-video audience map — the
// user interest graph over users seen on at least MinUserVideos videos and
// its k sub-communities (Figure 3) — deterministically given the map's
// contents, which may span videos stored on many shards.
func NewSocial(opts Options, audiences map[string][]string) *Social {
	g := community.BuildUIG(FilterAudiences(audiences, opts.MinUserVideos))
	return newSocial(g, community.ExtractSubCommunities(g, opts.K))
}

// newSocial wires the maintainer around a graph and its partition (shared
// by NewSocial and snapshot restore).
func newSocial(g *community.Graph, part *community.Partition) *Social {
	return &Social{graph: g, maint: community.NewMaintainer(g, part), part: part}
}

// Maintain runs step 2 of the Figure 5 pass over a batch's edge list and
// reports its statistics, wall time and the graph's size; step 3 is each
// recommender's ApplyComments. Callers serialize Maintain against every
// recommender using the Social.
func (s *Social) Maintain(edges []community.Edge) UpdateReport {
	s.part = s.part.Clone()
	s.maint.SetPartition(s.part)
	start := time.Now()
	st := s.maint.ApplyConnections(edges)
	return UpdateReport{
		Maintenance:         st,
		DimensionsTouched:   len(s.maint.Touched()),
		MaintenanceDuration: time.Since(start),
		GraphUsers:          s.graph.NumUsers(),
		GraphEdges:          s.graph.NumEdges(),
		GraphOverlay:        s.graph.OverlayLen(),
	}
}

// agrees reports how o differs from s, if it does: the graph (users, their
// ids, weighted edges) or the partition. Records vectorized under either
// state score identically under the other exactly when this returns nil.
func (s *Social) agrees(o *Social) error {
	switch {
	case !s.graph.Equal(o.graph):
		return fmt.Errorf("user interest graphs differ (%d users, %d edges vs %d, %d)",
			s.graph.NumUsers(), s.graph.NumEdges(), o.graph.NumUsers(), o.graph.NumEdges())
	case s.part.K != o.part.K || s.part.Dim != o.part.Dim ||
		math.Float64bits(s.part.LightestIntra) != math.Float64bits(o.part.LightestIntra) ||
		!s.part.SameAssignment(o.part):
		return fmt.Errorf("partitions differ (k=%d dim=%d vs k=%d dim=%d)", s.part.K, s.part.Dim, o.part.K, o.part.Dim)
	}
	return nil
}
