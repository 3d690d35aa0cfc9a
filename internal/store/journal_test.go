package store

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"videorec/internal/faults"
)

func TestJournalAppendReplay(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	batches := []map[string][]string{
		{"v1": {"a", "b"}},
		{"v2": {"c"}, "v3": {"d", "e"}},
	}
	for _, b := range batches {
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if j.Entries() != 2 {
		t.Errorf("Entries = %d, want 2", j.Entries())
	}
	var got []map[string][]string
	n, err := ReplayJournalEntries(&buf, func(_ uint64, c map[string][]string, _ []Edge) error {
		got = append(got, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("replayed %d batches", n)
	}
	if got[0]["v1"][1] != "b" || got[1]["v3"][0] != "d" {
		t.Errorf("replayed content wrong: %v", got)
	}
}

func TestJournalEmptyBatchIgnored(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Append(nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("empty batch was written")
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Append(map[string][]string{"v": {"u"}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a second entry.
	buf.WriteString(`{"seq":2,"comments":{"v2":[`)
	n, err := ReplayJournalEntries(&buf, func(uint64, map[string][]string, []Edge) error { return nil })
	if err != nil {
		t.Fatalf("truncated tail should be tolerated: %v", err)
	}
	if n != 1 {
		t.Errorf("replayed %d batches, want 1", n)
	}
}

func TestJournalRejectsMidstreamCorruption(t *testing.T) {
	data := `{"seq":1,"comments":{"v":["a"]}}
garbage that is not json
{"seq":3,"comments":{"v":["b"]}}
`
	_, err := ReplayJournalEntries(strings.NewReader(data), func(uint64, map[string][]string, []Edge) error { return nil })
	if err == nil {
		t.Error("midstream corruption accepted")
	}
}

func TestJournalFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "comments.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string][]string{"v": {"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open appends, not truncates.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(map[string][]string{"v": {"y"}}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	n, err := ReplayJournalFileEntries(path, func(uint64, map[string][]string, []Edge) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("replayed %d, want 2 (append mode)", n)
	}
}

func TestReplayJournalFileMissing(t *testing.T) {
	n, err := ReplayJournalFileEntries(filepath.Join(t.TempDir(), "absent.wal"), nil)
	if err != nil || n != 0 {
		t.Errorf("missing journal: n=%d err=%v", n, err)
	}
}

func TestReplayCallbackErrorStops(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Append(map[string][]string{"v1": {"a"}})
	j.Append(map[string][]string{"v2": {"b"}})
	calls := 0
	_, err := ReplayJournalEntries(&buf, func(uint64, map[string][]string, []Edge) error {
		calls++
		return os.ErrInvalid
	})
	if err == nil {
		t.Error("callback error swallowed")
	}
	if calls != 1 {
		t.Errorf("callback ran %d times after error, want 1", calls)
	}
}

func TestRepairJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "comments.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(map[string][]string{"v1": {"a"}})
	j.Append(map[string][]string{"v2": {"b"}})
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a partial third record with no newline.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"seq":3,"comments":{"v3":[`)
	f.Close()

	dropped, err := RepairJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("torn tail not detected")
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, clean) {
		t.Fatalf("repair did not restore the valid prefix:\n%q\nwant\n%q", repaired, clean)
	}
	// Appends after repair land cleanly and the whole file replays.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(map[string][]string{"v3": {"c"}})
	j2.Close()
	n, err := ReplayJournalFileEntries(path, func(uint64, map[string][]string, []Edge) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d batches after repair+append, want 3", n)
	}
	// A second repair is a no-op.
	if d, err := RepairJournal(path); err != nil || d != 0 {
		t.Fatalf("repair of clean journal: dropped=%d err=%v", d, err)
	}
}

func TestRepairJournalMissingFile(t *testing.T) {
	if d, err := RepairJournal(filepath.Join(t.TempDir(), "absent.wal")); err != nil || d != 0 {
		t.Fatalf("missing journal: dropped=%d err=%v", d, err)
	}
}

func TestRepairJournalRejectsMidstreamCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wal")
	data := `{"seq":1,"comments":{"v":["a"]}}
garbage that is not json
{"seq":3,"comments":{"v":["b"]}}
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RepairJournal(path); err == nil {
		t.Fatal("midstream corruption repaired as if it were a torn tail")
	}
	// The file must be untouched by the refused repair.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != data {
		t.Fatal("refused repair still modified the journal")
	}
}

func TestJournalAppendInjectedFault(t *testing.T) {
	defer faults.Reset()
	var buf bytes.Buffer
	j := NewJournal(&buf)
	faults.Arm(faults.JournalAppend, faults.Error(nil))
	if err := j.Append(map[string][]string{"v": {"u"}}); err == nil {
		t.Fatal("injected append fault not surfaced")
	}
	if buf.Len() != 0 {
		t.Fatal("failed append still wrote bytes")
	}
	faults.Reset()
	if err := j.Append(map[string][]string{"v": {"u"}}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a single flipped byte inside a record's payload — JSON still
// valid, content silently different — must be caught by the per-record
// checksum. Mid-file it is a hard error; at the tail it is dropped exactly
// like a torn append (the two are indistinguishable after a crash).
func TestJournalCRCDetectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(map[string][]string{"v1": {"alice"}})
	j.Append(map[string][]string{"v2": {"bobby"}})
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(sub string) []byte {
		i := bytes.Index(data, []byte(sub))
		if i < 0 {
			t.Fatalf("%q not in journal %q", sub, data)
		}
		out := append([]byte(nil), data...)
		out[i] ^= 0x01 // alice -> `lice / bobby -> cobby: still valid JSON
		return out
	}

	// Mid-file: corruption, not a tear.
	if err := os.WriteFile(path, flip("alice"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournalFileEntries(path, func(uint64, map[string][]string, []Edge) error { return nil }); err == nil {
		t.Fatal("mid-file bit flip replayed silently")
	}
	if _, err := RepairJournal(path); err == nil {
		t.Fatal("mid-file bit flip repaired as a torn tail")
	}

	// Final record: indistinguishable from a torn append — replay keeps the
	// valid prefix, repair truncates it.
	if err := os.WriteFile(path, flip("bobby"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayJournalFileEntries(path, func(uint64, map[string][]string, []Edge) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("tail bit flip: replayed %d batches, err %v; want the 1 valid prefix batch", n, err)
	}
	if dropped, err := RepairJournal(path); err != nil || dropped == 0 {
		t.Fatalf("tail bit flip not repaired: dropped=%d err=%v", dropped, err)
	}
}

// Legacy journals predate checksums: records without a crc field replay
// unverified, and mixed files (old prefix, new suffix) work.
func TestReplayLegacyJournalWithoutCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.wal")
	legacy := `{"seq":1,"comments":{"v1":["a","b"]}}
{"seq":2,"comments":{"v2":["c"]}}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	// Append through the current code: the new record is checksummed and the
	// sequence continues from the scanned legacy head.
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string][]string{"v3": {"d"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var seqs []uint64
	n, err := ReplayJournalFileEntries(path, func(seq uint64, _ map[string][]string, _ []Edge) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || seqs[2] != 3 {
		t.Fatalf("replayed %d batches with seqs %v, want 3 ending at seq 3", n, seqs)
	}
	raw, _ := os.ReadFile(path)
	if !bytes.Contains(raw, []byte(`"crc":`)) {
		t.Fatal("new record written without a checksum")
	}
}

// marshalEntry is the reference a journal line must equal byte for byte:
// the record struct through json.Marshal, with the checksum computed over
// the separately marshalled comments and edges.
func marshalEntry(t testing.TB, seq uint64, comments map[string][]string, edges []Edge) []byte {
	t.Helper()
	if len(comments) == 0 {
		comments = nil
	}
	if len(edges) == 0 {
		edges = nil
	}
	body, err := json.Marshal(comments)
	if err != nil {
		t.Fatal(err)
	}
	sum := strconv.AppendUint(nil, seq, 10)
	sum = append(append(sum, ':'), body...)
	if edges != nil {
		eb, err := json.Marshal(edges)
		if err != nil {
			t.Fatal(err)
		}
		sum = append(append(sum, '|'), eb...)
	}
	crc := crc32.Checksum(sum, castagnoli)
	line, err := json.Marshal(record{Seq: seq, CRC: &crc, Comments: comments, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// checkEntry encodes one entry through the journal's encoder and holds it to
// the reference line, then to the reader: the line must parse, verify its
// checksum and decode to the same batch.
func checkEntry(t testing.TB, seq uint64, comments map[string][]string, edges []Edge) {
	t.Helper()
	encoded, err := EncodeEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	line, err := encodeEntry(seq, comments, encoded)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalEntry(t, seq, comments, edges); !bytes.Equal(line, want) {
		t.Fatalf("seq %d: encoder wrote\n%s\njson.Marshal writes\n%s", seq, line, want)
	}
	rec, marker, err := parseRecord(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil || marker {
		t.Fatalf("seq %d: parse %q: marker %v, %v", seq, line, marker, err)
	}
	if rec.Seq != seq || len(rec.Comments) != len(comments) || len(rec.Edges) != len(edges) {
		t.Fatalf("seq %d: decoded %+v", seq, rec)
	}
}

// journalNames exercise every escape the encoder applies: HTML-sensitive
// characters, quotes and backslashes, the JavaScript line separators, and
// non-ASCII text.
var journalNames = []string{"", "ann", "<b>", "a&b", `q"uote`, `back\slash`, "line\u2028sep", "para\u2029sep", "zoë", "日本語", "tab\tnl\n"}

// Property: for random batches — nil and empty comments, nil and empty
// edges, names needing every escape, weights that are not small integers,
// any sequence number an entry can carry (≥ 1) — the journal line is
// exactly the json.Marshal line and verifies on read.
func TestEncodeEntryMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	name := func() string { return journalNames[rng.Intn(len(journalNames))] }
	weights := []float64{1, 2, 0.1, 1e-7, 1e21, 123456.789, 5e-324, 1.7976931348623157e308}
	checkEntry(t, 1, nil, nil)
	checkEntry(t, 2, map[string][]string{}, []Edge{})
	checkEntry(t, 3, nil, []Edge{{U: "a", V: "b", W: 1}})
	checkEntry(t, 4, map[string][]string{"v": nil}, nil)
	checkEntry(t, 5, map[string][]string{"v": {}}, nil)
	for trial := 0; trial < 500; trial++ {
		var comments map[string][]string
		if rng.Intn(4) > 0 {
			comments = map[string][]string{}
			for v := rng.Intn(4); v > 0; v-- {
				var users []string
				for u := rng.Intn(4); u > 0; u-- {
					users = append(users, name())
				}
				comments[name()] = users
			}
		}
		var edges []Edge
		if rng.Intn(3) > 0 {
			edges = []Edge{}
			for e := rng.Intn(6); e > 0; e-- {
				edges = append(edges, Edge{U: name(), V: name(), W: weights[rng.Intn(len(weights))]})
			}
		}
		checkEntry(t, max(1, rng.Uint64()>>rng.Intn(64)), comments, edges)
	}
}

// Every line of a short seeded sharded history, as the implementation that
// marshalled each shard's record whole wrote it, re-encodes to the same
// bytes: the line format, the checksum and the escaping are unchanged.
func TestEncodeEntryReproducesShardJournalFixture(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "shardjournal", "journal.shard*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture journals (%v)", err)
	}
	lines := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			rec, marker, err := parseRecord(bytes.TrimSuffix(line, []byte("\n")))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if marker {
				continue
			}
			encoded, err := EncodeEdges(rec.Edges)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeEntry(rec.Seq, rec.Comments, encoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%s seq %d re-encodes as\n%s\nfixture has\n%s", path, rec.Seq, got, line)
			}
			lines++
		}
	}
	if lines < 8 {
		t.Fatalf("fixture holds only %d entries", lines)
	}
}
