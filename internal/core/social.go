package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"videorec/internal/community"
	"videorec/internal/hashing"
)

// Social is the sub-community half of the recommender: the user interest
// graph and its Figure 5 maintainer (whose hooks close over the Social), the
// partition, the chained hash table, the ModeSAR linear dictionary and the
// dimensions the latest pass touched. A single engine owns one; every shard
// of a sharded deployment points at the same one, so a batch is maintained
// once and each shard only re-vectorizes its own records against it.
//
// Between passes a Social is immutable: views reference its partition, table
// and dictionary, and a pass copies those three before changing them, so a
// published view keeps answering from what it froze. No view reaches the
// graph, the maintainer or the touched set.
type Social struct {
	opts Options

	graph *community.Graph
	maint *community.Maintainer

	part  *community.Partition
	table *hashing.Table
	dict  []dictEntry // linear-scan dictionary, kept in ModeSAR only

	touched map[int]bool // dimensions changed by the latest maintenance pass
}

type dictEntry struct {
	user string
	cno  int
}

// NewSocial builds the social machinery over a per-video audience map — the
// user interest graph over users seen on at least MinUserVideos videos, its
// k sub-communities (Figure 3), the dictionaries — deterministically given
// the map's contents, which may span videos stored on many shards.
func NewSocial(opts Options, audiences map[string][]string) *Social {
	g := community.BuildUIG(FilterAudiences(audiences, opts.MinUserVideos))
	return newSocial(opts, g, community.ExtractSubCommunities(g, opts.K))
}

// newSocial wires the dictionaries and the maintainer around a graph and its
// partition (shared by NewSocial and snapshot restore).
func newSocial(opts Options, g *community.Graph, part *community.Partition) *Social {
	s := &Social{opts: opts, graph: g, part: part, touched: map[int]bool{}}
	s.rebuildDictionaries()
	s.maint = community.NewMaintainer(g, part, community.Hooks{
		AssignUser: func(u string, cno int) {
			s.table.Insert(u, cno)
			if s.opts.Mode == ModeSAR {
				s.dict = append(s.dict, dictEntry{user: u, cno: cno})
			}
			s.touched[cno] = true
		},
		ReplaceCommunity: func(old, new int) {
			s.table.ReplaceCno(old, new)
			for i := range s.dict { // empty outside ModeSAR
				if s.dict[i].cno == old {
					s.dict[i].cno = new
				}
			}
		},
		TouchDimensions: func(ids ...int) {
			for _, d := range ids {
				s.touched[d] = true
			}
		},
	})
	return s
}

// rebuildDictionaries builds the hash table and — in ModeSAR, whose lookup
// is its only reader — the linear dictionary from the partition.
func (s *Social) rebuildDictionaries() {
	s.table = hashing.NewTable(s.opts.HashBuckets, 17)
	s.dict = nil
	assign := s.part.AssignMap()
	users := make([]string, 0, len(assign))
	for u := range assign {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		cno := assign[u]
		s.table.Insert(u, cno)
		if s.opts.Mode == ModeSAR {
			s.dict = append(s.dict, dictEntry{user: u, cno: cno})
		}
	}
}

// Maintain runs step 2 of the Figure 5 pass over a batch's edge list and
// reports its statistics, wall time and the graph's size; step 3 is each
// recommender's ApplyComments. Callers serialize Maintain against every
// recommender using the Social.
func (s *Social) Maintain(edges []community.Edge) UpdateReport {
	s.part = s.part.Clone()
	s.table = s.table.Clone()
	s.dict = slices.Clone(s.dict)
	s.maint.SetPartition(s.part)
	s.touched = map[int]bool{}
	start := time.Now()
	st := s.maint.ApplyConnections(edges)
	return UpdateReport{
		Maintenance:         st,
		DimensionsTouched:   len(s.touched),
		MaintenanceDuration: time.Since(start),
		GraphUsers:          s.graph.NumUsers(),
		GraphEdges:          s.graph.NumEdges(),
		GraphOverlay:        s.graph.OverlayLen(),
	}
}

// agrees reports how o differs from s, if it does: the graph (users, their
// ids, weighted edges), the partition or the dictionary. The hash table
// needs no check: every pass patches it exactly as the partition changes,
// so it maps users as the partition does. Records vectorized under either
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
	case !slices.Equal(s.dict, o.dict):
		return fmt.Errorf("linear dictionaries differ")
	}
	return nil
}
