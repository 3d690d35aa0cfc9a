package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"videorec/internal/core"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// span is where one section sits in a version 2 file: its header at start,
// its payload at [payload, payload+n), and its checksum just after.
type span struct {
	tag               string
	start, payload, n int
}

// sections walks a version 2 file's section headers.
func sections(t *testing.T, b []byte) []span {
	t.Helper()
	var out []span
	for o := len(magic) + 4; o < len(b); {
		n := int(binary.LittleEndian.Uint64(b[o+4:]))
		out = append(out, span{tag: string(b[o : o+4]), start: o, payload: o + 16, n: n})
		o += 16 + n + 4
	}
	if got := len(out); got != 7 || out[6].tag != tagDone {
		t.Fatalf("walked %d sections ending in %q, want the 7 of version 2", got, out[got-1].tag)
	}
	return out
}

// builtSnapshot saves a small built recommender after one comment batch,
// so the graph holds overlay edges and the partition was maintained.
func builtSnapshot(t *testing.T, n int) []byte {
	t.Helper()
	r := buildRecommender(t, n, true)
	r.ApplyUpdates(map[string][]string{vidID(0): {"newbie", "a", "b"}, vidID(1): {"c", "newbie"}})
	var buf bytes.Buffer
	if err := Save(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withOptsPayload returns the version 2 file b with its opts section's
// payload replaced and both of that section's checksums recomputed.
func withOptsPayload(t *testing.T, b, payload []byte) []byte {
	t.Helper()
	opts := sections(t, b)[1]
	var h [16]byte
	copy(h[:4], tagOpts)
	binary.LittleEndian.PutUint64(h[4:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	out := slices.Concat(b[:opts.start], h[:], payload)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, b[opts.payload+opts.n+4:]...)
}

// TestLoadIgnoresRetiredOptions: a version 2 file written while
// core.Options still had DegradeMargin carries that field in its opts JSON.
// The decoder ignores it, and the snapshot restores with the options it
// would have without it.
func TestLoadIgnoresRetiredOptions(t *testing.T) {
	b := builtSnapshot(t, 6)
	opts := sections(t, b)[1]
	if opts.tag != tagOpts || b[opts.payload] != '{' {
		t.Fatalf("section 1 is %q starting %q, want an opts JSON object", opts.tag, b[opts.payload])
	}
	old := withOptsPayload(t, b, append([]byte(`{"DegradeMargin":20000000,`), b[opts.payload+1:opts.payload+opts.n]...))

	want, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("a snapshot whose opts hold DegradeMargin: %v", err)
	}
	if !reflect.DeepEqual(got.Options, want.Options) {
		t.Fatalf("options %+v, want %+v", got.Options, want.Options)
	}
	if _, err := core.FromSnapshot(got); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsHostileLSBOptions: a version 2 file whose opts JSON
// carries LSB options the hash family or the embedder cannot be built from
// decodes, and FromSnapshot refuses it with an error instead of panicking
// in lsh.
func TestRestoreRejectsHostileLSBOptions(t *testing.T) {
	b := builtSnapshot(t, 6)
	good, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bad  func(*index.LSBOptions)
	}{
		{"bits=9", func(o *index.LSBOptions) { o.Bits = 9 }},
		{"w=-1", func(o *index.LSBOptions) { o.W = -1 }},
		{"vmax=vmin", func(o *index.LSBOptions) { o.VMax = o.VMin }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := good.Options
			tc.bad(&opts.LSB)
			payload, err := json.Marshal(opts)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := Load(bytes.NewReader(withOptsPayload(t, b, payload)))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if snap.Options.LSB != opts.LSB {
				t.Fatalf("decoded LSB options %+v, want %+v", snap.Options.LSB, opts.LSB)
			}
			if _, err := core.FromSnapshot(snap); err == nil {
				t.Fatalf("restored a snapshot with LSB options %+v", opts.LSB)
			}
		})
	}
}

// TestSectionChecksums: a flipped byte in any section's header or payload
// fails that section's checksum, and the error names the section.
func TestSectionChecksums(t *testing.T) {
	good := builtSnapshot(t, 10)
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	for _, s := range sections(t, good) {
		at := map[string]int{"header": s.start + 5}
		if s.n > 0 {
			at["payload"] = s.payload + s.n/2
		} else {
			at["checksum"] = s.payload
		}
		for where, i := range at {
			bad := slices.Clone(good)
			bad[i] ^= 0x10
			_, err := Load(bytes.NewReader(bad))
			if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), fmt.Sprintf("section %q", s.tag)) {
				t.Errorf("section %s: flipped %s byte: error %v, want a checksum error naming the section", s.tag, where, err)
			}
		}
	}
}

// TestEveryFlippedByteFails: past the magic and version, no single flipped
// byte of a file loads, and none panics.
func TestEveryFlippedByteFails(t *testing.T) {
	good := builtSnapshot(t, 4)
	for i := len(magic) + 4; i < len(good); i++ {
		bad := slices.Clone(good)
		bad[i] ^= 0x01
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("a flipped byte at %d of %d loaded", i, len(good))
		}
	}
}

// TestTruncationAtSectionBoundaries: a file cut where a section starts, where
// its payload starts or where its checksum starts is an error naming that
// section; so is a cut one byte short of the end.
func TestTruncationAtSectionBoundaries(t *testing.T) {
	good := builtSnapshot(t, 6)
	for _, s := range sections(t, good) {
		for _, cut := range []int{s.start, s.payload, s.payload + s.n, s.payload + s.n + 3} {
			_, err := Load(bytes.NewReader(good[:cut]))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("section %q", s.tag)) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("cut at %d (section %s): error %v, want a truncation naming the section", cut, s.tag, err)
			}
		}
	}
}

// TestLoadRebuildsCompiledExactly: over a 2,000-clip corpus of synthetic
// signatures with tied values, every compiled series a version 2 file
// rebuilds equals CompileSeries of its own series and the saving engine's,
// bit for bit, and the restored engine's LSB keys equal those ingest
// computed.
func TestLoadRebuildsCompiledExactly(t *testing.T) {
	opts := core.DefaultOptions()
	opts.K = 8
	src := core.NewRecommender(opts)
	rng := rand.New(rand.NewSource(7))
	for i := range 2000 {
		series := make(signature.Series, 1+rng.Intn(8))
		for s := range series {
			cb := make([]signature.Cuboid, rng.Intn(40))
			for k := range cb {
				cb[k] = signature.Cuboid{V: float64(rng.Intn(64)-32) / 4, Mu: float64(1+rng.Intn(8)) / 32}
			}
			series[s].Cuboids = cb
		}
		src.IngestSeries(fmt.Sprintf("v%04d", i), series, social.NewDescriptor(fmt.Sprintf("u%d", rng.Intn(300)), fmt.Sprintf("u%d", rng.Intn(300))))
	}
	src.BuildSocial()
	var buf bytes.Buffer
	if err := Save(&buf, src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range snap.Records {
		want, _ := src.Record(rs.ID)
		if !rs.Compiled.Identical(signature.CompileSeries(rs.Compiled.Series())) || !rs.Compiled.Identical(want.Compiled) {
			t.Fatalf("%s: the compiled series rebuilt from the file differs from CompileSeries", rs.ID)
		}
	}
	restored, err := core.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range src.SortedIDs() {
		got, _ := restored.Record(id)
		want, _ := src.Record(id)
		if !slices.Equal(got.Keys, want.Keys) {
			t.Fatalf("%s: restored LSB keys %x, ingest computed %x", id, got.Keys, want.Keys)
		}
	}
}

// TestLoadLegacyRejectsBadOrder: a version 1 file whose Order is not a
// permutation of its records' ids is an error. Order [a, a] over records
// [a, b] must not load one clip and silently drop b.
func TestLoadLegacyRejectsBadOrder(t *testing.T) {
	rec := func(id string) legacyRecord {
		return legacyRecord{ID: id, Series: signature.Series{{Cuboids: []signature.Cuboid{{V: 1, Mu: 1}}}}, Users: []string{"u"}}
	}
	file := func(records []legacyRecord, order []string) io.Reader {
		var buf bytes.Buffer
		buf.WriteString(magic)
		binary.Write(&buf, binary.LittleEndian, uint32(legacyVersion))
		if err := gob.NewEncoder(&buf).Encode(legacySnapshot{Options: core.DefaultOptions(), Records: records, Order: order}); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	for _, tc := range []struct {
		name    string
		records []legacyRecord
		order   []string
		want    string
	}{
		{"duplicate", []legacyRecord{rec("a"), rec("b")}, []string{"a", "a"}, `lists "a" twice`},
		{"missing", []legacyRecord{rec("a"), rec("b")}, []string{"a"}, "order (1) and records (2) disagree"},
		{"unknown", []legacyRecord{rec("a"), rec("b")}, []string{"a", "x"}, `unknown id "x"`},
		{"duplicate record", []legacyRecord{rec("a"), rec("a")}, []string{"a", "b"}, `unknown id "b"`},
	} {
		_, err := Load(file(tc.records, tc.order))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to name %q", tc.name, err, tc.want)
		}
	}
	big := legacyRecord{ID: "big", Series: signature.Series{{Cuboids: make([]signature.Cuboid, signature.MaxCuboids+1)}}}
	if _, err := Load(file([]legacyRecord{big}, []string{"big"})); err == nil {
		t.Error("a signature of MaxCuboids+1 cuboids loaded")
	}
	snap, err := Load(file([]legacyRecord{rec("a"), rec("b")}, []string{"b", "a"}))
	if err != nil || len(snap.Records) != 2 || snap.Records[0].ID != "b" {
		t.Fatalf("a permuted Order failed to load in its order: %v", err)
	}
}
