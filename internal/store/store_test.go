package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"videorec/internal/core"
	"videorec/internal/faults"
	"videorec/internal/social"
	"videorec/internal/video"
)

func buildRecommender(t testing.TB, n int, build bool) *core.Recommender {
	t.Helper()
	opts := core.DefaultOptions()
	opts.K = 8
	r := core.NewRecommender(opts)
	rng := rand.New(rand.NewSource(4))
	users := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		v := video.Synthesize(vidID(i), i%3, video.DefaultSynthOptions(), rng)
		commenters := append([]string{}, users[i%3], users[(i+1)%6], users[(i+2)%6])
		r.IngestVideo(v.ID, v, social.NewDescriptor(users[i%6], commenters...))
	}
	if build {
		r.BuildSocial()
	}
	return r
}

func vidID(i int) string { return string(rune('p'+i%16)) + "-clip" }

func TestRoundTripBuilt(t *testing.T) {
	r := buildRecommender(t, 10, true)
	var buf bytes.Buffer
	if err := Save(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != r.Len() {
		t.Fatalf("restored %d videos, want %d", restored.Len(), r.Len())
	}
	if restored.Partition() == nil || restored.Partition().Dim != r.Partition().Dim {
		t.Fatal("partition not restored")
	}
	// Recommendations must be identical (fully deterministic pipeline).
	for _, id := range r.SortedIDs()[:3] {
		a := r.RecommendID(id, 5)
		b := restored.RecommendID(id, 5)
		if len(a) != len(b) {
			t.Fatalf("result lengths differ for %s: %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d for %s differs: %+v vs %+v", i, id, a[i], b[i])
			}
		}
	}
}

func TestRoundTripUnbuilt(t *testing.T) {
	r := buildRecommender(t, 5, false)
	var buf bytes.Buffer
	if err := Save(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Partition() != nil {
		t.Error("unbuilt snapshot restored a partition")
	}
	restored.BuildSocial() // must work after restore
	if restored.Partition() == nil {
		t.Error("BuildSocial after restore failed to build")
	}
}

func TestUpdatesContinueAfterReload(t *testing.T) {
	r := buildRecommender(t, 10, true)
	snap := r.Snapshot()
	restored, err := core.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	rep := restored.ApplyUpdates(map[string][]string{
		vidID(0): {"newbie1", "newbie2", "a"},
	})
	if rep.Maintenance.NewConnections == 0 {
		t.Error("no connections derived after reload")
	}
	if got := restored.RecommendID(vidID(0), 3); len(got) == 0 {
		t.Error("no recommendations after post-reload update")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := buildRecommender(t, 6, true)
	snap := r.Snapshot()
	// Mutating the original must not affect the snapshot.
	r.ApplyUpdates(map[string][]string{vidID(1): {"x1", "x2", "a"}})
	restored, err := core.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := restored.Record(vidID(1))
	if rec.Desc.Contains("x1") {
		t.Error("snapshot saw a post-snapshot update")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTASNAP????"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.WriteString("VRECSNAP")
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := Load(&buf); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: got %v", err)
	}
	// Truncated body.
	var ok bytes.Buffer
	r := buildRecommender(t, 3, false)
	if err := Save(&ok, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	trunc := ok.Bytes()[:ok.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.snap")
	r := buildRecommender(t, 8, true)
	if err := SaveFile(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 8 {
		t.Errorf("records = %d, want 8", len(snap.Records))
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want only the snapshot", len(entries))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	if _, err := core.FromSnapshot(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	r := buildRecommender(t, 4, true)
	snap := r.Snapshot()
	snap.Records = append(snap.Records, snap.Records[0])
	if _, err := core.FromSnapshot(snap); err == nil {
		t.Error("a record listed twice accepted")
	}
	snap2 := r.Snapshot()
	snap2.Assign = slices.Clone(snap2.Assign) // shared with the live partition
	snap2.Assign[0] = 999
	if _, err := core.FromSnapshot(snap2); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	r := buildRecommender(b, 16, true)
	snap := r.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, snap); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// A crash between writing the snapshot temp file and renaming it into place
// (injected at faults.SnapshotCommit) must leave the previous snapshot
// intact and loadable — the atomic-rename contract.
func TestSaveFileCrashDuringCommitLeavesTargetIntact(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "eng.snap")
	r := buildRecommender(t, 8, true)
	if err := SaveFile(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" the process at the commit point of the next save.
	faults.Arm(faults.SnapshotCommit, faults.Error(nil))
	r2 := buildRecommender(t, 12, true)
	if err := SaveFile(path, r2.Snapshot()); err == nil {
		t.Fatal("injected commit crash did not surface")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("target snapshot changed despite aborted commit")
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatalf("old snapshot unloadable after aborted save: %v", err)
	}
	restored, err := core.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 8 {
		t.Fatalf("restored %d videos, want the pre-crash 8", restored.Len())
	}

	// Recovery: with the fault cleared the next save goes through.
	faults.Reset()
	if err := SaveFile(path, r2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored2, err := core.FromSnapshot(snap2); err != nil || restored2.Len() != 12 {
		t.Fatalf("post-recovery snapshot: len=%v err=%v", restored2.Len(), err)
	}
}
