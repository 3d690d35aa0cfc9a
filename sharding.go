package videorec

import (
	"errors"
	"fmt"
	"sync"

	"videorec/internal/community"
	"videorec/internal/core"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/store"
)

// Sharding bridge: the surface a scatter-gather router (internal/shard)
// drives on each shard engine. A sharded deployment holds N Engines, each
// owning a hash slice of the corpus with its own dense id table, indexes,
// journal and COW view, and all pointing at one social state (core.Social).
// The router coordinates what must see the whole corpus — the social build,
// update maintenance, the query fan-out — reusing the single-engine
// machinery; none of it changes single-engine behavior.

// ErrSharedSocial reports a standalone update to an engine that shares its
// social state with other shards: it would maintain every sharer's state but
// re-vectorize one shard. Shared engines update through ApplyShared.
var ErrSharedSocial = errors.New("videorec: engine shares its social state with other shards; update through ApplyShared")

// lockAll takes every engine's writer lock in order and returns the release.
func lockAll(engines []*Engine) (unlock func()) {
	for _, e := range engines {
		e.writeMu.Lock()
	}
	return func() {
		for _, e := range engines {
			e.writeMu.Unlock()
		}
	}
}

// eachParallel runs fn for every engine concurrently and waits for all.
func eachParallel(engines []*Engine, fn func(i int, e *Engine)) {
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, e)
		}()
	}
	wg.Wait()
}

// BuildShared runs one social build over the union of the engines' audience
// maps (disjoint by video) and installs it in every engine, which indexes
// its own records against it in parallel and publishes.
func BuildShared(engines []*Engine) {
	defer lockAll(engines)()
	global := map[string][]string{}
	for _, e := range engines {
		for vid, aud := range e.rec.CollectAudiences() {
			global[vid] = aud
		}
	}
	s := core.NewSocial(engines[0].rec.Options(), global)
	eachParallel(engines, func(_ int, e *Engine) {
		e.rec.UseSocial(s)
		e.shared = len(engines) > 1
		e.publishLocked()
	})
}

// ShareSocial points every engine at the first engine's social state once
// each engine's own copy — restored from its snapshot and journal — is
// checked to agree with it. An engine that disagrees fails the call.
func ShareSocial(engines []*Engine) error {
	defer lockAll(engines)()
	lead := engines[0].rec.Social()
	for i, e := range engines[1:] {
		if err := e.rec.ShareSocial(lead); err != nil {
			return fmt.Errorf("videorec: shard %d: %w", i+1, err)
		}
		engines[0].shared, e.shared = true, true
	}
	return nil
}

// ApplyShared runs one comment batch over engines sharing one social state,
// doing its social work once: one derivation reads each commented video on
// the engine owner names (-1: nobody holds it; its comments are ignored), the
// edge list is encoded once for every engine's journal entry, one Figure 5
// pass runs, and then the engines re-vectorize their own records in
// parallel. A journal failure returns before the pass changes anything.
func ApplyShared(engines []*Engine, owner func(id string) int, newComments map[string][]string) (UpdateSummary, error) {
	defer lockAll(engines)()
	lead := engines[0].rec
	for _, e := range engines {
		if !e.rec.Built() {
			return UpdateSummary{}, ErrNotBuilt
		}
		if e.rec.Social() != lead.Social() {
			return UpdateSummary{}, errors.New("videorec: ApplyShared over engines that do not share a social state")
		}
	}
	local := make([]map[string][]string, len(engines))
	for vid, users := range newComments {
		if i := owner(vid); i >= 0 {
			if local[i] == nil {
				local[i] = map[string][]string{}
			}
			local[i][vid] = users
		}
	}
	edges := lead.DeriveFrom(newComments, func(id string) *core.Record {
		if i := owner(id); i >= 0 {
			rec, _ := engines[i].rec.Record(id)
			return rec
		}
		return nil
	})
	encoded, err := store.EncodeEdges(edges)
	if err != nil {
		return UpdateSummary{}, fmt.Errorf("videorec: journal: %w", err)
	}
	for i, e := range engines {
		if err := e.logBatchLocked(local[i], encoded); err != nil {
			return UpdateSummary{}, err
		}
	}
	rep := lead.Social().Maintain(edges)
	revectorized := make([]int, len(engines))
	eachParallel(engines, func(i int, e *Engine) {
		revectorized[i] = e.rec.ApplyComments(local[i])
		e.publishLocked()
	})
	for _, n := range revectorized {
		rep.VideosRevectorized += n
	}
	return summaryFromReport(rep), nil
}

// PreparedClip is a clip after validation and signature extraction — what
// travels from the router's extraction step to the owning shard's
// AddPrepared. Extraction is the expensive, lock-free part of Add; routing
// it separately means a router hashes the id, extracts once, and only the
// owning shard pays the (brief) writer-lock insertion.
type PreparedClip struct {
	ID     string
	Series signature.Series
	Desc   social.Descriptor
}

// PrepareClip validates a clip and extracts its signature series and social
// descriptor using this engine's configuration. All shards of a deployment
// share one Options, so a clip prepared against any shard ingests
// identically on every shard.
func (e *Engine) PrepareClip(clip Clip) (PreparedClip, error) {
	if clip.ID == "" {
		return PreparedClip{}, ErrEmptyID
	}
	if len(clip.Frames) == 0 {
		return PreparedClip{}, ErrNoFrames
	}
	v, err := toVideo(clip)
	if err != nil {
		return PreparedClip{}, err
	}
	return PreparedClip{
		ID:     clip.ID,
		Series: e.rec.ExtractSeries(v),
		Desc:   social.NewDescriptor(clip.Owner, clip.Commenters...),
	}, nil
}

// AddPrepared ingests a prepared clip — the second half of Add.
func (e *Engine) AddPrepared(p PreparedClip) error {
	if p.ID == "" {
		return ErrEmptyID
	}
	for _, sig := range p.Series {
		if len(sig.Cuboids) > signature.MaxCuboids {
			return ErrSignatureTooLarge
		}
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.rec.IngestSeries(p.ID, p.Series, p.Desc)
	e.publishLocked()
	return nil
}

// Reindex rebuilds the derived index state — SAR vectors, inverted files,
// compacted LSB trees — around the engine's social state, which it reads
// but never changes, and publishes the result: the shard-drain re-intern
// path, which must keep the maintained partition a fresh extraction would
// not reproduce. Returns ErrNotBuilt before the first Build.
func (e *Engine) Reindex() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.rec.Social() == nil {
		return ErrNotBuilt
	}
	e.rec.UseSocial(e.rec.Social())
	e.publishLocked()
	return nil
}

// DeriveConnections derives the social connections a comment batch induces
// against this engine's records (comments on videos stored elsewhere
// contribute nothing).
func (e *Engine) DeriveConnections(newComments map[string][]string) ([]community.Edge, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if !e.rec.Built() {
		return nil, ErrNotBuilt
	}
	return e.rec.DeriveConnections(newComments), nil
}

// ApplyReplicatedEntry applies one shipped journal batch under the
// primary's sequence number. Delivery is at-least-once: a batch at or below
// the current cursor is a duplicate and is skipped (returning false) —
// applying is idempotent under redelivery. A batch that would leave a gap
// returns ErrReplicationGap. When a local journal is attached the batch is
// appended to it under the same sequence number before it is applied, so
// the replica is itself crash-safe and can serve as a bootstrap source.
//
// A shard-journal entry carries the batch's global edge list alongside the
// shard's local comments; an edge-less entry (nil edges) applies through the
// whole-corpus path, deriving its connections here.
func (e *Engine) ApplyReplicatedEntry(seq uint64, comments map[string][]string, edges []store.Edge) (bool, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if !e.rec.Built() {
		return false, ErrNotBuilt
	}
	if e.shared {
		return false, ErrSharedSocial
	}
	cur := e.applied.Load()
	if seq <= cur {
		return false, nil // duplicate delivery
	}
	if seq != cur+1 {
		return false, fmt.Errorf("%w: applied through %d, shipped %d", ErrReplicationGap, cur, seq)
	}
	if e.journal != nil {
		encoded, err := store.EncodeEdges(edges)
		if err == nil {
			err = e.journal.AppendEntryAt(seq, comments, encoded)
		}
		if err != nil {
			return false, fmt.Errorf("videorec: journal: %w", err)
		}
	}
	if edges != nil {
		e.rec.ApplyEdges(edges, comments)
	} else {
		e.rec.ApplyUpdates(comments)
	}
	e.publishLocked()
	e.applied.Store(seq)
	return true, nil
}

// CurrentView returns the engine's published immutable view and its
// version — the fan-out handle: a router loads every shard's view once per
// query and runs the lock-free gather/refine path against each.
func (e *Engine) CurrentView() (*core.View, uint64) {
	cur := e.cur.Load()
	return cur.view, cur.version
}

// NewAdHocQuery validates an ad-hoc clip and builds the core query for it —
// extraction plus descriptor, against the current view's configuration. The
// query holds only data (series, compiled signatures, descriptor), so a
// router builds it once and fans the same query out to every shard's view.
func (e *Engine) NewAdHocQuery(clip Clip) (core.Query, error) {
	if len(clip.Frames) == 0 {
		return core.Query{}, ErrNoFrames
	}
	v, err := toVideo(clip)
	if err != nil {
		return core.Query{}, err
	}
	view, _ := e.CurrentView()
	return view.AdHocQuery(v, social.NewDescriptor(clip.Owner, clip.Commenters...)), nil
}

// ExportRecords returns a self-contained copy of every stored record — id,
// signature series, descriptor members — in ingestion order: the drain
// payload. A router draining this shard re-ingests these into the surviving
// shards (RecordClip reconstructs the ingestable form).
func (e *Engine) ExportRecords() []core.RecordSnapshot {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.rec.Snapshot().Records
}

// PreparedFromRecord rebuilds the ingestable form of an exported record —
// the re-intern half of a shard drain.
func PreparedFromRecord(rs core.RecordSnapshot) PreparedClip {
	return PreparedClip{
		ID:     rs.ID,
		Series: rs.Compiled.Series(),
		Desc:   rs.Desc,
	}
}

// NumShards reports how many shard engines back this engine: one. The
// serving layer's Backend interface is shared by Engine and the router, and
// both answer per-shard introspection through it.
func (e *Engine) NumShards() int { return 1 }

// ShardEngine resolves a shard index to its engine; a plain Engine is its
// own and only shard.
func (e *Engine) ShardEngine(i int) (*Engine, bool) {
	if i != 0 {
		return nil, false
	}
	return e, true
}
