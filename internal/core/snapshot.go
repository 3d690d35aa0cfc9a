package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"videorec/internal/community"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// Snapshot is the recommender's complete persistent state: everything needed
// to rebuild the indexes deterministically and to keep applying incremental
// social updates after a reload. It holds what the engine serves from — each
// record's compiled series, the user interest graph's CSR base, the dense
// partition — so taking one copies no series and restoring one sorts
// nothing. The LSB forest, descriptor vectors and inverted files are derived
// state, rebuilt on load. A Snapshot shares its compiled series, descriptors,
// user names and assignment with the recommender that took it; all of them
// are immutable, and the caller must not modify them.
type Snapshot struct {
	Options Options

	// Records are the stored clips in ingestion order: restore installs them
	// in this order, which fixes their dense ids.
	Records []RecordSnapshot

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
	K, Dim        int
	LightestIntra float64
	Users         []string  // the UIG's users, by dense id (isolated users included)
	Assign        []int32   // dense user id → sub-community, -1 for none; at most len(Users) long
	EdgeKeys      []uint64  // the UIG's edges a<<32|b, a < b, ascending (community.Graph.CSR)
	EdgeWeights   []float64 // EdgeWeights[i] is EdgeKeys[i]'s weight
}

// RecordSnapshot is one video's persistent state.
type RecordSnapshot struct {
	ID       string
	Compiled *signature.CompiledSeries
	Desc     social.Descriptor
}

// Snapshot captures the recommender's state. It is a pure read of the build
// state, so it never triggers a copy-on-write clone, and it costs O(records)
// pointer copies plus one copy of the graph's edges: the compiled series,
// descriptors, user names and the published partition's assignment are
// immutable and shared, and only the graph, which maintenance patches in
// place, is copied. The result is safe to serialize while the recommender
// moves on.
func (r *Recommender) Snapshot() *Snapshot {
	st := r.state
	order := st.ordered()
	s := &Snapshot{
		Options: r.opts,
		Built:   st.built,
		Records: make([]RecordSnapshot, len(order)),
	}
	for k, i := range order {
		rec := st.recs.At(i)
		s.Records[k] = RecordSnapshot{ID: rec.ID, Compiled: rec.Compiled, Desc: rec.Desc}
	}
	if st.built && st.part != nil {
		g := r.social.graph
		s.K, s.Dim, s.LightestIntra = st.part.K, st.part.Dim, st.part.LightestIntra
		users := g.Users()
		s.Users = users[:len(users):len(users)]
		s.Assign = st.part.Assignment()
		s.EdgeKeys, s.EdgeWeights = g.CSR()
	}
	return s
}

// FromSnapshot reconstructs a recommender: signatures are re-indexed into a
// fresh LSB tree (deterministic given Options), and when the snapshot was
// built, the partition and UIG are restored verbatim so incremental updates
// continue where they left off. The restored recommender's first Freeze
// publishes a view identical to what the saving engine served.
//
// The records' LSB keys are recomputed from their compiled series on
// GOMAXPROCS goroutines while the graph and the partition are restored, and
// the records are then installed serially in order, exactly as IngestSeries
// would install them one by one.
func FromSnapshot(s *Snapshot) (*Recommender, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if err := checkOptions(s.Options); err != nil {
		return nil, err
	}
	for i := range s.Records {
		if s.Records[i].Compiled == nil {
			return nil, fmt.Errorf("core: snapshot record %q has no compiled series", s.Records[i].ID)
		}
	}
	r := NewRecommender(s.Options)

	// The UIG (straight into its CSR base) and the partition are restored
	// while the records are keyed; neither reads the other.
	var soc *Social
	var socErr error
	restored := make(chan struct{})
	go func() {
		defer close(restored)
		if s.Built {
			soc, socErr = restoreSocial(s)
		}
	}()
	keys := keyAll(r.state.lsb, s.Records)
	<-restored
	if socErr != nil {
		return nil, socErr
	}
	for k := range s.Records {
		rec := &s.Records[k]
		if _, dup := r.state.index(rec.ID); dup {
			return nil, fmt.Errorf("core: snapshot lists %q twice", rec.ID)
		}
		r.install(rec.ID, rec.Compiled, keys[k], rec.Desc)
	}
	if soc != nil {
		// Rebuild the derived structures the way BuildSocial does.
		r.UseSocial(soc)
	}
	return r, nil
}

// restoreSocial rebuilds a built snapshot's graph and partition.
func restoreSocial(s *Snapshot) (*Social, error) {
	g, err := community.GraphFromCSR(s.Users, s.EdgeKeys, s.EdgeWeights)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot graph: %w", err)
	}
	p, err := community.RestorePartition(g.UserTable(), s.K, s.Dim, s.LightestIntra, s.Assign)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot partition: %w", err)
	}
	return newSocial(g, p), nil
}

// keyAll computes every record's LSB keys on GOMAXPROCS goroutines;
// keys[k] is recs[k]'s. It reads only lsb's hash families and embedder,
// which no write changes.
func keyAll(lsb *index.LSB, recs []RecordSnapshot) [][]uint64 {
	keys := make([][]uint64, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(recs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(recs)); k = next.Add(1) - 1 {
				keys[k] = lsb.CompiledKeys(recs[k].Compiled)
			}
		}()
	}
	wg.Wait()
	return keys
}

// SortedIDs returns the ingested video ids in a stable order (useful for
// deterministic dumps and diffing snapshots).
func (r *Recommender) SortedIDs() []string { return r.state.SortedIDs() }
