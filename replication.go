package videorec

import (
	"errors"
	"io"

	"videorec/internal/core"
	"videorec/internal/store"
)

// Replication: the engine's journal doubles as a replication log. A primary
// journals every ApplyUpdates batch under a monotonically increasing
// sequence number; replicas bootstrap from a snapshot stamped with the
// cursor it covers and then apply shipped journal entries idempotently.
// Everything here runs under the writer mutex, so shipped batches, local
// mutations and snapshots interleave without tearing.

// ErrReplicationGap reports a shipped batch that does not extend the
// replica's history contiguously: an entry was lost between the primary's
// journal and this engine. The replica cannot repair this locally — it must
// re-bootstrap from a primary snapshot.
var ErrReplicationGap = errors.New("videorec: replication sequence gap — re-bootstrap from snapshot")

// ErrNoJournal is returned by replication operations that require an
// attached journal.
var ErrNoJournal = errors.New("videorec: no journal attached")

// WriteReplicationSnapshot streams a bootstrap snapshot to w and returns the
// cursor it covers: the view version and journal sequence number captured
// atomically with the state. A replica that loads these bytes and then tails
// the journal from Cursor.Seq reconstructs the primary bit for bit.
func (e *Engine) WriteReplicationSnapshot(w io.Writer) (store.Cursor, error) {
	e.writeMu.Lock()
	snap := e.snapshotLocked()
	e.writeMu.Unlock()
	cur := store.Cursor{SnapshotVersion: snap.Version, Seq: snap.JournalSeq}
	return cur, store.Save(w, snap)
}

// Reload replaces the engine's state in place with a snapshot — the
// replica's re-bootstrap path when the primary has compacted its journal
// past the replica's cursor. The new state is published under a version
// that is both ≥ the snapshot's stamp and strictly greater than the current
// version, so local version-keyed caches never see a version reused for
// different state. An attached journal is reset to start at the snapshot's
// cursor.
func (e *Engine) Reload(r io.Reader) error {
	snap, err := store.Load(r)
	if err != nil {
		return err
	}
	rec, err := core.FromSnapshot(snap)
	if err != nil {
		return err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	version := snap.Version
	if prev := e.cur.Load().version; version <= prev {
		version = prev + 1
	}
	e.rec, e.shared = rec, false
	e.cur.Store(&engineView{view: rec.Freeze(), version: version})
	e.applied.Store(snap.JournalSeq)
	if e.journal != nil {
		if err := e.journal.ResetTo(snap.JournalSeq); err != nil {
			return err
		}
	}
	return nil
}

// SaveFileAndCompact atomically snapshots the engine to path and compacts
// the attached journal down to a marker at the snapshot's cursor — the
// primary's log-trimming operation. Both happen under one writer-lock hold,
// so the snapshot covers exactly the entries the compaction drops: a
// replica that re-bootstraps from this snapshot misses nothing. Replicas
// whose cursor predates the compaction get ErrCompacted from the tail and
// re-bootstrap automatically.
func (e *Engine) SaveFileAndCompact(path string) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.journal == nil {
		return ErrNoJournal
	}
	if err := store.SaveFile(path, e.snapshotLocked()); err != nil {
		return err
	}
	return e.journal.Compact()
}

// JournalStatus reports the attached journal's position: whether one is
// attached, the file path, the compaction base, and the head sequence.
func (e *Engine) JournalStatus() (attached bool, path string, base, seq uint64) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.journal == nil {
		return false, "", 0, 0
	}
	return true, e.jpath, e.journal.Base(), e.journal.Seq()
}

// JournalPath returns the attached journal's file path ("" when none) — the
// file the replication tail endpoint reads.
func (e *Engine) JournalPath() string {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.jpath
}
