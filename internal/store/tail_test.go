package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBatches(t *testing.T, path string, n int) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(map[string][]string{"v": {strings.Repeat("u", i+1)}}); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

func TestReadTailFromCursor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j := writeBatches(t, path, 5)
	defer j.Close()

	tail, err := ReadTail(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Head != 5 || tail.Base != 0 || tail.State != TailCaughtUp {
		t.Fatalf("tail = %+v, want head 5 base 0 caught-up", tail)
	}
	if len(tail.Entries) != 3 || tail.Entries[0].Seq != 3 || tail.Entries[2].Seq != 5 {
		t.Fatalf("entries = %+v, want seqs 3..5", tail.Entries)
	}
	// Caught up exactly at the head.
	tail, err = ReadTail(path, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Entries) != 0 || tail.Head != 5 {
		t.Fatalf("tail at head = %+v, want no entries", tail)
	}
}

func TestReadTailLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j := writeBatches(t, path, 6)
	defer j.Close()
	tail, err := ReadTail(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Entries) != 2 || tail.Entries[1].Seq != 2 {
		t.Fatalf("capped entries = %+v, want seqs 1,2", tail.Entries)
	}
	// Head still reports the real end so pollers know there is more.
	if tail.Head != 6 {
		t.Fatalf("head = %d, want 6", tail.Head)
	}
}

func TestReadTailTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j := writeBatches(t, path, 2)
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"seq":3,"crc":1,"comments":{"v":[`)
	f.Close()

	tail, err := ReadTail(path, 0, 0)
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if tail.State != TailTorn {
		t.Fatalf("state = %v, want TailTorn", tail.State)
	}
	if len(tail.Entries) != 2 || tail.Head != 2 {
		t.Fatalf("tail = %+v, want the 2 valid entries", tail)
	}
}

func TestReadTailMidstreamCorruptionErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	data := `{"seq":1,"comments":{"v":["a"]}}
garbage
{"seq":3,"comments":{"v":["b"]}}
`
	os.WriteFile(path, []byte(data), 0o644)
	if _, err := ReadTail(path, 0, 0); err == nil {
		t.Fatal("midstream corruption served as a tail")
	}
}

func TestReadTailCompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j := writeBatches(t, path, 4)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string][]string{"v": {"post-compact"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// A cursor inside the compacted range cannot be served.
	_, err := ReadTail(path, 2, 0)
	if !errors.Is(err, ErrCompacted) {
		t.Fatalf("err = %v, want ErrCompacted", err)
	}
	// A cursor at or past the base tails normally.
	tail, err := ReadTail(path, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Base != 4 || tail.Head != 5 || len(tail.Entries) != 1 || tail.Entries[0].Seq != 5 {
		t.Fatalf("post-compaction tail = %+v, want base 4 head 5 entry seq 5", tail)
	}
}

func TestReadTailMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.wal")
	tail, err := ReadTail(path, 0, 0)
	if err != nil || tail.Head != 0 {
		t.Fatalf("missing file with zero cursor: %+v, %v", tail, err)
	}
	if _, err := ReadTail(path, 3, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("missing file with nonzero cursor: %v, want ErrCompacted", err)
	}
}

func TestOpenJournalContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j := writeBatches(t, path, 3)
	if j.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", j.Seq())
	}
	j.Close()
	// A new process must continue, not restart, the sequence.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 3 {
		t.Fatalf("reopened seq = %d, want 3", j2.Seq())
	}
	if err := j2.Append(map[string][]string{"v": {"next"}}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	var seqs []uint64
	if _, err := ReplayJournalFileEntries(path, func(seq uint64, _ map[string][]string, _ []Edge) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
}

func TestAppendAtRejectsGaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j := writeBatches(t, path, 2)
	defer j.Close()
	if err := j.AppendEntryAt(4, map[string][]string{"v": {"x"}}, nil); err == nil {
		t.Fatal("gap accepted")
	}
	if err := j.AppendEntryAt(3, map[string][]string{"v": {"x"}}, nil); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", j.Seq())
	}
}

func TestResetToStartsLogAtCursor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// A replica bootstraps from a snapshot covering seq 7: the local log
	// must accept seq 8 next.
	if err := j.ResetTo(7); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEntryAt(8, map[string][]string{"v": {"u"}}, nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Base() != 7 || j2.Seq() != 8 {
		t.Fatalf("reopened base/seq = %d/%d, want 7/8", j2.Base(), j2.Seq())
	}
}
