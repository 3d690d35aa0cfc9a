package store

import (
	"bytes"
	"math"
	"os"
	"testing"
	"unicode/utf8"

	"videorec/internal/core"
)

func writeFuzzFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o600)
}

// snapshotSeeds adds the snapshot fuzz targets' seeds: headers, junk, an
// empty input, a valid version 2 snapshot and a version 1 one.
func snapshotSeeds(f *testing.F) {
	f.Add([]byte("VRECSNAP\x01\x00\x00\x00"))
	f.Add([]byte("VRECSNAP"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	var buf bytes.Buffer
	r := buildRecommender(f, 3, true)
	if err := Save(&buf, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	legacy, err := os.ReadFile("../../testdata/legacy_sar_fullscan.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
}

// FuzzLoad: arbitrary bytes must never panic either snapshot decoder — they
// either decode or return an error. It runs the decoder alone;
// FuzzFromSnapshot restores what decodes.
func FuzzLoad(f *testing.F) {
	snapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Load(bytes.NewReader(data))
	})
}

// FuzzFromSnapshot: a snapshot that decodes must either restore or return an
// error — no panic in core.FromSnapshot.
func FuzzFromSnapshot(f *testing.F) {
	snapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = core.FromSnapshot(snap)
	})
}

// FuzzReplayJournal: arbitrary journal bytes must never panic replay — not
// the legacy uncheckedsummed records, not the CRC32C-stamped v2 records, not
// compaction markers, and not any mutation of them.
func FuzzReplayJournal(f *testing.F) {
	// Legacy (pre-checksum) shapes.
	f.Add([]byte(`{"seq":1,"comments":{"v":["a"]}}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"seq":1,"comments":{"v":["a"]}}` + "\n" + `{"seq":2,"comments":{`))
	// Checksummed records with real CRCs, plus a compaction marker, written
	// by the journal itself so the corpus tracks the wire format.
	var crcd bytes.Buffer
	j := NewJournal(&crcd)
	for _, user := range []string{"ann", "ben"} {
		if err := j.Append(map[string][]string{"v": {user, "cal"}}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(crcd.Bytes())
	f.Add([]byte(`{"base":7}` + "\n" + string(crcd.Bytes())))
	// A CRC that does not match its payload, and a torn CRC'd tail.
	f.Add([]byte(`{"seq":1,"crc":12345,"comments":{"v":["a"]}}` + "\n"))
	if b := crcd.Bytes(); len(b) > 4 {
		f.Add(b[:len(b)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReplayJournalEntries(bytes.NewReader(data), func(uint64, map[string][]string, []Edge) error { return nil })
	})
}

// FuzzJournalLine: for any batch — names of arbitrary bytes, any weight,
// sequence and shape — the journal's encoder writes exactly the
// json.Marshal line, and a line whose names are valid UTF-8 verifies and
// decodes on read. (json.Marshal rewrites invalid UTF-8 to U+FFFD, so two
// such names can collide, or sort differently once decoded; no encoder can
// make those lines verify.)
func FuzzJournalLine(f *testing.F) {
	f.Add(uint64(1), "v", "ann", "ben", 1.0, byte(0xff))
	f.Add(uint64(7), "<clip&1>", `q"uote`, `back\slash`, 0.1, byte(0x5a))
	f.Add(uint64(1<<63), "line\u2028sep", "zoë", "日本語", 1e21, byte(0x0f))
	f.Add(uint64(2), "", "", "", 1e-7, byte(0))
	f.Fuzz(func(t *testing.T, seq uint64, a, b, c string, w float64, shape byte) {
		if math.IsNaN(w) || math.IsInf(w, 0) || seq == 0 {
			return // json.Marshal refuses them, derivation never makes one, and entries count from 1
		}
		var comments map[string][]string
		switch shape & 3 {
		case 1:
			comments = map[string][]string{}
		case 2:
			comments = map[string][]string{a: {b, c}}
		case 3:
			comments = map[string][]string{a: nil, b: {}, c: {a}}
		}
		var edges []Edge
		switch shape >> 2 & 3 {
		case 1:
			edges = []Edge{}
		case 2:
			edges = []Edge{{U: a, V: b, W: w}}
		case 3:
			edges = []Edge{{U: a, V: b, W: w}, {U: b, V: c, W: -w}, {U: c, V: a, W: w / 3}}
		}
		encoded, err := EncodeEdges(edges)
		if err != nil {
			t.Fatal(err)
		}
		line, err := encodeEntry(seq, comments, encoded)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalEntry(t, seq, comments, edges); !bytes.Equal(line, want) {
			t.Fatalf("encoder wrote\n%s\njson.Marshal writes\n%s", line, want)
		}
		if !utf8.ValidString(a) || !utf8.ValidString(b) || !utf8.ValidString(c) {
			return
		}
		if _, _, err := parseRecord(bytes.TrimSuffix(line, []byte("\n"))); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	})
}

// FuzzReadTail: the replication tail reader shares the journal parser but
// has its own cursor/compaction logic — arbitrary bytes and cursors must
// never panic it.
func FuzzReadTail(f *testing.F) {
	var crcd bytes.Buffer
	j := NewJournal(&crcd)
	for _, user := range []string{"ann", "ben", "cal"} {
		if err := j.Append(map[string][]string{"v": {user}}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(crcd.Bytes(), uint64(1))
	f.Add([]byte(`{"base":2}`+"\n"+`{"seq":3,"comments":{"v":["a"]}}`+"\n"), uint64(1))
	f.Add([]byte("torn"), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		dir := t.TempDir()
		path := dir + "/fuzz.wal"
		if err := writeFuzzFile(path, data); err != nil {
			t.Skip()
		}
		_, _ = ReadTail(path, after, 64)
	})
}
