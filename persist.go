package videorec

import (
	"io"
	"log"

	"videorec/internal/core"
	"videorec/internal/store"
)

// Save serializes the engine's state — signatures, descriptors, the user
// interest graph and the sub-community partition — to w, stamped with the
// current view version. Derived structures (LSB tree, descriptor vectors,
// inverted files) are rebuilt on Load, so snapshots stay compact. Save takes
// the writer lock for a consistent cut of the build state; lock-free readers
// keep serving the published view throughout.
func (e *Engine) Save(w io.Writer) error {
	return store.Save(w, e.snapshot())
}

// SaveFile saves the engine atomically to a file path.
func (e *Engine) SaveFile(path string) error {
	return store.SaveFile(path, e.snapshot())
}

func (e *Engine) snapshot() *core.Snapshot {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.snapshotLocked()
}

// snapshotLocked captures the build state stamped with the current view
// version and replication cursor. Callers must hold writeMu, which makes
// the (state, version, seq) triple consistent: no update can land between
// the three reads.
func (e *Engine) snapshotLocked() *core.Snapshot {
	snap := e.rec.Snapshot()
	snap.Version = e.cur.Load().version
	snap.JournalSeq = e.applied.Load()
	return snap
}

// Load restores an engine from a snapshot produced by Save. If the snapshot
// was built, the engine is immediately ready to Recommend and ApplyUpdates;
// otherwise call Build after loading. The restored state is published under
// the view version stamped into the snapshot, so version-keyed caches and
// replication cursors stay monotonic across restarts — the version names
// exactly the state that was saved, making reuse across processes safe.
// (Snapshots from before version stamping load as version 0 and behave like
// a fresh engine's counter.)
func Load(r io.Reader) (*Engine, error) {
	snap, err := store.Load(r)
	if err != nil {
		return nil, err
	}
	return engineFromSnapshot(snap)
}

// LoadFile restores an engine from a snapshot file.
func LoadFile(path string) (*Engine, error) {
	snap, err := store.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return engineFromSnapshot(snap)
}

func engineFromSnapshot(snap *core.Snapshot) (*Engine, error) {
	rec, err := core.FromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	e := &Engine{rec: rec}
	e.cur.Store(&engineView{view: rec.Freeze(), version: snap.Version})
	e.applied.Store(snap.JournalSeq)
	return e, nil
}

// AttachJournal opens (or creates) an append-only comment journal at path:
// every subsequent ApplyUpdates batch is logged before it is applied, so a
// crash between snapshots loses no social updates. Pair with ReplayJournal
// at startup.
//
// A torn final record — the previous process died mid-append — is truncated
// away (with a logged warning) before the journal is opened for appending,
// so new batches never land after garbage and the file replays cleanly on
// the next restart. Corruption beyond a torn tail is an error.
func (e *Engine) AttachJournal(path string) error {
	if dropped, err := store.RepairJournal(path); err != nil {
		return err
	} else if dropped > 0 {
		log.Printf("videorec: journal %s: truncated %d-byte torn tail from a previous crash", path, dropped)
	}
	j, err := store.OpenJournal(path)
	if err != nil {
		return err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.journal != nil {
		e.journal.Close()
	}
	switch applied := e.applied.Load(); {
	case j.Seq() > applied:
		// The file holds batches this engine has not applied — the caller
		// skipped ReplayJournal, or replayed a different file. Adopt the
		// file's head so new appends stay contiguous; the cursor tracks the
		// journal, and the divergence is the operator's to notice.
		log.Printf("videorec: journal %s is at seq %d but only %d applied — attach after ReplayJournal to avoid gaps", path, j.Seq(), applied)
		e.applied.Store(j.Seq())
	case j.Seq() < applied:
		// The engine (via its snapshot) is ahead of the file: a fresh replica
		// journal, or a journal deleted after the last snapshot. Start the
		// log at the cursor so sequence numbers stay aligned with the
		// snapshot's coverage.
		if j.Seq() > j.Base() {
			log.Printf("videorec: journal %s ends at seq %d but snapshot covers %d — restarting log at the snapshot cursor", path, j.Seq(), applied)
		}
		if err := j.ResetTo(applied); err != nil {
			j.Close()
			return err
		}
	}
	e.journal = j
	e.jpath = path
	return nil
}

// ReplayJournal replays every batch of a journal file through the update
// path (a missing file replays zero batches). Call after loading a snapshot
// and before AttachJournal. Batches the snapshot already covers — sequence
// numbers at or below the snapshot's stamped cursor — are skipped instead
// of double-applied, so a snapshot saved after journaling started restarts
// cleanly against the full journal. Returns the number of batches applied.
// A shard replays before the shards share their social state; after, a
// batch left to replay fails with ErrSharedSocial.
func (e *Engine) ReplayJournal(path string) (int, error) {
	start := e.applied.Load()
	applied := 0
	_, err := store.ReplayJournalFileEntries(path, func(seq uint64, comments map[string][]string, edges []store.Edge) error {
		if seq > 0 && seq <= start {
			return nil // already folded into the snapshot
		}
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		if !e.rec.Built() {
			return ErrNotBuilt
		}
		if e.shared {
			return ErrSharedSocial
		}
		if edges != nil {
			// Shard-journal entry: replay under the batch's global edge list
			// it was appended with, exactly as ApplyShared maintained it.
			e.rec.ApplyEdges(edges, comments)
		} else {
			e.rec.ApplyUpdates(comments)
		}
		e.publishLocked()
		if seq > e.applied.Load() {
			e.applied.Store(seq)
		} else {
			// Legacy journals (pre-checksum) restarted sequence numbering on
			// every reopen; keep the cursor moving so Attach stays aligned.
			e.applied.Add(1)
		}
		applied++
		return nil
	})
	return applied, err
}

// CloseJournal flushes and detaches the journal, if any.
func (e *Engine) CloseJournal() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.journal == nil {
		return nil
	}
	err := e.journal.Close()
	e.journal = nil
	e.jpath = ""
	return err
}
