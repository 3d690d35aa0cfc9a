package store

import (
	"bufio"
	"encoding/gob"
	"fmt"

	"videorec/internal/community"
	"videorec/internal/core"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// legacySnapshot is a version 1 file's gob payload: the snapshot as it was
// when it held raw series, a name-keyed partition and named edges. Gob
// matches fields by name and drops the ones a struct lacks, so files from
// every version 1 engine decode into it.
type legacySnapshot struct {
	Options    core.Options
	Records    []legacyRecord
	Order      []string
	Version    uint64
	JournalSeq uint64

	Built         bool
	Assign        map[string]int
	Dim           int
	K             int
	LightestIntra float64
	GraphEdges    []community.Edge
	GraphUsers    []string
}

type legacyRecord struct {
	ID     string
	Series signature.Series
	Users  []string
}

// loadLegacy decodes a version 1 payload and converts it: records compiled
// in Order, the graph rebuilt as GraphFromEdges builds it and the partition
// as NewPartition does, which is how version 1 engines restored them.
//
// Files from before the engine had one serving mode carry the options that
// selected the others: the social-relevance mode and the content-only,
// social-only and full-scan switches. Gob drops them, so such a file loads
// and serves SAR-H at its stored ω: one saved in exact-sJ (CSF) or CSF-SAR
// mode now serves SAR-H, and one saved with the content-only or social-only
// switch serves the fused ranking at its stored ω, not one relevance alone.
// Files from before the partition was the only user dictionary carry a
// HashBuckets option, which gob drops the same way.
func loadLegacy(br *bufio.Reader) (*core.Snapshot, error) {
	var l legacySnapshot
	if err := gob.NewDecoder(br).Decode(&l); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	recs, err := l.inOrder()
	if err != nil {
		return nil, err
	}
	snap := &core.Snapshot{
		Options:    l.Options,
		Records:    make([]core.RecordSnapshot, len(recs)),
		Version:    l.Version,
		JournalSeq: l.JournalSeq,
		Built:      l.Built,
	}
	for k, rec := range recs {
		snap.Records[k] = core.RecordSnapshot{
			ID:       rec.ID,
			Compiled: signature.CompileSeries(rec.Series),
			Desc:     social.NewDescriptor("", rec.Users...),
		}
	}
	if l.Built {
		g := community.GraphFromEdges(l.GraphUsers, l.GraphEdges)
		p := community.NewPartition(g.UserTable(), l.K, l.Dim, l.LightestIntra, l.Assign)
		snap.K, snap.Dim, snap.LightestIntra = l.K, l.Dim, l.LightestIntra
		snap.Users, snap.Assign = g.Users(), p.Assignment()
		snap.EdgeKeys, snap.EdgeWeights = g.CSR()
	}
	return snap, nil
}

// inOrder checks what conversion relies on and returns the records in
// Order: an Order that lists every record's id exactly once, signatures of
// at most signature.MaxCuboids cuboids, and, in a built snapshot,
// sub-community ids below Dim.
func (l *legacySnapshot) inOrder() ([]*legacyRecord, error) {
	if len(l.Order) != len(l.Records) {
		return nil, fmt.Errorf("store: snapshot order (%d) and records (%d) disagree", len(l.Order), len(l.Records))
	}
	byID := make(map[string]*legacyRecord, len(l.Records))
	for i := range l.Records {
		byID[l.Records[i].ID] = &l.Records[i]
	}
	recs := make([]*legacyRecord, len(l.Order))
	for k, id := range l.Order {
		rec, ok := byID[id]
		switch {
		case !ok:
			return nil, fmt.Errorf("store: snapshot order references unknown id %q", id)
		case rec == nil:
			return nil, fmt.Errorf("store: snapshot order lists %q twice", id)
		}
		byID[id] = nil
		for _, sig := range rec.Series {
			if len(sig.Cuboids) > signature.MaxCuboids {
				return nil, fmt.Errorf("store: snapshot record %q has a signature of %d cuboids (max %d)", id, len(sig.Cuboids), signature.MaxCuboids)
			}
		}
		recs[k] = rec
	}
	if l.Built {
		for u, c := range l.Assign {
			if c < 0 || c >= l.Dim {
				return nil, fmt.Errorf("store: snapshot assigns %q to invalid sub-community %d (dim %d)", u, c, l.Dim)
			}
		}
	}
	return recs, nil
}
