package core

import (
	"fmt"

	"videorec/internal/community"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// Snapshot is the recommender's complete persistent state: everything needed
// to rebuild the indexes deterministically and to keep applying incremental
// social updates after a reload. The LSB tree, hash table, descriptor
// vectors and inverted files are all derived state and are reconstructed on
// load rather than stored.
type Snapshot struct {
	Options Options
	Records []RecordSnapshot
	Order   []string

	// Version records the view version of the engine that saved the
	// snapshot. A reloaded engine resumes this counter — it publishes the
	// restored state under the same version — so version-keyed caches and
	// replication cursors stay monotonic across restarts. Aliasing is safe:
	// the version identifies exactly the state that was saved.
	Version uint64

	// JournalSeq is the journal sequence number of the last update batch
	// included in this snapshot — the replication cursor the snapshot
	// covers. Replay and replica catch-up skip batches with seq ≤ JournalSeq
	// instead of double-applying them. Zero for snapshots written before
	// journal shipping (or by engines without a journal).
	JournalSeq uint64

	// Social machinery (present when BuildSocial had run).
	Built         bool
	Assign        map[string]int
	Dim           int
	K             int
	LightestIntra float64
	GraphEdges    []community.Edge
	GraphUsers    []string // preserves isolated users
}

// RecordSnapshot is one video's persistent state.
type RecordSnapshot struct {
	ID     string
	Series signature.Series
	Users  []string // social descriptor members
}

// Snapshot captures the recommender's state. The result shares no mutable
// structure with the recommender and is safe to serialize. It is a pure
// read of the build state, so it never triggers a copy-on-write clone.
func (r *Recommender) Snapshot() *Snapshot {
	st := r.state
	s := &Snapshot{
		Options: r.opts,
		Built:   st.built,
	}
	for _, i := range st.ordered() {
		rec := st.recs.At(i)
		s.Order = append(s.Order, rec.ID)
		s.Records = append(s.Records, RecordSnapshot{
			ID:     rec.ID,
			Series: rec.Compiled.Series(),
			Users:  append([]string(nil), rec.Desc.Users()...),
		})
	}
	if st.built && st.part != nil {
		s.Assign = st.part.AssignMap()
		s.Dim = st.part.Dim
		s.K = st.part.K
		s.LightestIntra = st.part.LightestIntra
		s.GraphEdges = r.social.graph.Edges()
		s.GraphUsers = append([]string(nil), r.social.graph.Users()...)
	}
	return s
}

// FromSnapshot reconstructs a recommender: signatures are re-indexed into a
// fresh LSB tree (deterministic given Options), and when the snapshot was
// built, the partition and UIG are restored verbatim so incremental updates
// continue where they left off. The restored recommender's first Freeze
// publishes a view identical to what the saving engine served.
//
// Snapshots from before the engine had one serving mode may carry the
// options that selected the others: the social-relevance mode and the
// content-only, social-only and full-scan switches. Gob drops unknown fields
// silently, so such a snapshot loads and serves SAR-H (the chained hash
// dictionary) at its stored ω: one saved in exact-sJ (CSF) or CSF-SAR mode
// now serves SAR-H, and one saved with the content-only or social-only
// switch serves the fused ranking at its stored ω, not one relevance alone.
func FromSnapshot(s *Snapshot) (*Recommender, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if err := checkGrid(s.Options.Sig); err != nil {
		return nil, err
	}
	r := NewRecommender(s.Options)
	byID := make(map[string]RecordSnapshot, len(s.Records))
	for _, rec := range s.Records {
		byID[rec.ID] = rec
	}
	for _, id := range s.Order {
		rec, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("core: snapshot order references unknown id %q", id)
		}
		for _, sig := range rec.Series {
			if len(sig.Cuboids) > signature.MaxCuboids {
				return nil, fmt.Errorf("core: snapshot record %q has a signature of %d cuboids (max %d)", id, len(sig.Cuboids), signature.MaxCuboids)
			}
		}
		r.IngestSeries(id, rec.Series, social.NewDescriptor("", rec.Users...))
	}
	if len(s.Order) != len(s.Records) {
		return nil, fmt.Errorf("core: snapshot order (%d) and records (%d) disagree", len(s.Order), len(s.Records))
	}
	if !s.Built {
		return r, nil
	}

	// Restore the UIG (in one pass, straight into its CSR base) and the
	// partition, then rebuild derived structures the same way BuildSocial
	// does.
	g := community.GraphFromEdges(s.GraphUsers, s.GraphEdges)
	for u, c := range s.Assign {
		if c < 0 || c >= s.Dim {
			return nil, fmt.Errorf("core: snapshot assigns %q to invalid sub-community %d (dim %d)", u, c, s.Dim)
		}
	}
	r.UseSocial(newSocial(r.opts, g, community.NewPartition(g.UserTable(), s.K, s.Dim, s.LightestIntra, s.Assign)))
	return r, nil
}

// SortedIDs returns the ingested video ids in a stable order (useful for
// deterministic dumps and diffing snapshots).
func (r *Recommender) SortedIDs() []string { return r.state.SortedIDs() }
