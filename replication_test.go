package videorec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// ApplyReplicatedEntry is idempotent under at-least-once delivery: duplicates
// are skipped, gaps are refused, and a journal-shipped replica ends bitwise
// identical to the primary.
func TestApplyReplicatedShipsJournal(t *testing.T) {
	dir := t.TempDir()
	primary, col := buildEngine(t, Options{})
	if err := primary.AttachJournal(filepath.Join(dir, "primary.wal")); err != nil {
		t.Fatal(err)
	}

	// Bootstrap the replica from a replication snapshot.
	var snap bytes.Buffer
	cur, err := primary.WriteReplicationSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.AttachJournal(filepath.Join(dir, "replica.wal")); err != nil {
		t.Fatal(err)
	}
	if replica.AppliedSeq() != cur.Seq {
		t.Fatalf("replica cursor = %d, want snapshot's %d", replica.AppliedSeq(), cur.Seq)
	}

	src := col.Queries[0].Sources[0]
	batches := []map[string][]string{
		{src: {"rep-user-1", col.Users[0]}},
		{col.Items[1].ID: {"rep-user-2", col.Users[1]}},
		{src: {"rep-user-3", col.Users[2], col.Users[3]}},
	}
	for _, b := range batches {
		if _, err := primary.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}

	// Ship with redelivery: every batch twice — duplicates must be skipped.
	for i, b := range batches {
		seq := cur.Seq + uint64(i) + 1
		applied, err := replica.ApplyReplicatedEntry(seq, b, nil)
		if err != nil || !applied {
			t.Fatalf("ship seq %d: applied=%v err=%v", seq, applied, err)
		}
		applied, err = replica.ApplyReplicatedEntry(seq, b, nil)
		if err != nil || applied {
			t.Fatalf("duplicate seq %d: applied=%v err=%v, want skipped", seq, applied, err)
		}
	}
	if replica.AppliedSeq() != primary.AppliedSeq() {
		t.Fatalf("cursors diverge: replica %d, primary %d", replica.AppliedSeq(), primary.AppliedSeq())
	}

	// A gap cannot be applied.
	if _, err := replica.ApplyReplicatedEntry(replica.AppliedSeq()+2, batches[0], nil); !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("gap error = %v, want ErrReplicationGap", err)
	}

	// Bitwise-identical answers.
	for _, q := range col.Queries {
		id := q.Sources[0]
		a, err := primary.Recommend(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replica.Recommend(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s rank %d: primary %+v vs replica %+v", id, i, a[i], b[i])
			}
		}
	}

	// The replica's own journal is a valid bootstrap source: a third node
	// built from the replica's local snapshot+journal matches too.
	if err := replica.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	third, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n, err := third.ReplayJournal(filepath.Join(dir, "replica.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(batches) {
		t.Fatalf("third node replayed %d batches, want %d", n, len(batches))
	}
	a, _ := primary.Recommend(src, 10)
	c, err := third.Recommend(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("rank %d: primary %+v vs chained replica %+v", i, a[i], c[i])
		}
	}
}

// A snapshot saved while journaling records its cursor, so a restart that
// replays the full journal skips the prefix the snapshot already covers
// instead of double-applying it.
func TestReplayAfterSnapshotSkipsCoveredBatches(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "eng.snap")
	walPath := filepath.Join(dir, "comments.wal")

	live, col := buildEngine(t, Options{})
	if err := live.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	src := col.Queries[0].Sources[0]
	if _, err := live.ApplyUpdates(map[string][]string{src: {"early-user", col.Users[0]}}); err != nil {
		t.Fatal(err)
	}
	// Snapshot mid-journal: covers seq 1.
	if err := live.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, err := live.ApplyUpdates(map[string][]string{src: {"late-user", col.Users[1]}}); err != nil {
		t.Fatal(err)
	}
	if err := live.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	recovered, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.AppliedSeq() != 1 {
		t.Fatalf("restored cursor = %d, want 1", recovered.AppliedSeq())
	}
	n, err := recovered.ReplayJournal(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d batches, want only the 1 the snapshot missed", n)
	}
	if err := recovered.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	a, _ := live.Recommend(src, 10)
	b, err := recovered.Recommend(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: live %+v vs recovered %+v", i, a[i], b[i])
		}
	}
}

// SaveFileAndCompact trims the journal to a marker while the snapshot
// covers everything trimmed; Reload re-bootstraps an engine in place with a
// strictly advancing view version.
func TestSaveFileAndCompactThenReload(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "eng.snap")
	walPath := filepath.Join(dir, "comments.wal")

	eng, col := buildEngine(t, Options{})
	if err := eng.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	src := col.Queries[0].Sources[0]
	for i := 0; i < 3; i++ {
		if _, err := eng.ApplyUpdates(map[string][]string{src: {col.Users[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SaveFileAndCompact(snapPath); err != nil {
		t.Fatal(err)
	}
	attached, _, base, seq := eng.JournalStatus()
	if !attached || base != 3 || seq != 3 {
		t.Fatalf("journal after compact: attached=%v base=%d seq=%d, want base=seq=3", attached, base, seq)
	}
	// Appends continue past the compaction.
	if _, err := eng.ApplyUpdates(map[string][]string{src: {"post-compact"}}); err != nil {
		t.Fatal(err)
	}
	if eng.AppliedSeq() != 4 {
		t.Fatalf("cursor after post-compact update = %d, want 4", eng.AppliedSeq())
	}

	// Reload another engine in place from the compaction snapshot.
	other, _ := buildEngine(t, Options{})
	beforeVersion := other.Version()
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := other.Reload(f); err != nil {
		t.Fatal(err)
	}
	if other.AppliedSeq() != 3 {
		t.Fatalf("reloaded cursor = %d, want 3", other.AppliedSeq())
	}
	if other.Version() <= beforeVersion && other.Version() < 3 {
		t.Fatalf("reloaded version = %d, must advance past %d or match the snapshot", other.Version(), beforeVersion)
	}
	// Catch up the shipped tail and match the primary.
	if _, err := other.ApplyReplicatedEntry(4, map[string][]string{src: {"post-compact"}}, nil); err != nil {
		t.Fatal(err)
	}
	a, _ := eng.Recommend(src, 10)
	b, err := other.Recommend(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
