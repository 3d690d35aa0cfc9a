package videorec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"videorec/internal/faults"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != eng.Len() {
		t.Fatalf("restored %d clips, want %d", restored.Len(), eng.Len())
	}
	src := col.Queries[0].Sources[0]
	a, err := eng.Recommend(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Recommend(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Updates still work after reload.
	if _, err := restored.ApplyUpdates(map[string][]string{src: {"post-reload-user", col.Users[0]}}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSaveFileLoadFile(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	path := filepath.Join(t.TempDir(), "eng.snap")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Recommend(col.Queries[1].Sources[0], 5); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

// Concurrent readers during background updates must not race (run with
// -race to verify) and must always see a consistent engine.
func TestEngineConcurrentAccess(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	src := col.Queries[0].Sources[0]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Recommend(src, 5); err != nil {
					t.Errorf("Recommend: %v", err)
					return
				}
			}
		}()
	}
	for m := 0; m < 3; m++ {
		if _, err := eng.ApplyUpdates(map[string][]string{src: {"u-live", col.Users[m]}}); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Save takes a consistent cut under the writer lock while lock-free readers
// keep serving; the reloaded engine answers identically and publishes its
// state under the version stamped into the snapshot, so version-keyed
// caches and replication cursors stay monotonic across restarts (the
// version names exactly the state that was saved, so reuse never aliases
// different state).
func TestSaveUnderConcurrentReadersAndVersionPersistence(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	// Advance the live engine's version past 1 so persistence is observable.
	src := col.Queries[0].Sources[0]
	if _, err := eng.ApplyUpdates(map[string][]string{src: {"pre-save-user", col.Users[0]}}); err != nil {
		t.Fatal(err)
	}
	liveVersion := eng.Version()
	if liveVersion < 2 {
		t.Fatalf("live version = %d, want ≥ 2 (ingest+build+update)", liveVersion)
	}

	// Readers hammer the engine across the whole Save.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Recommend(src, 5); err != nil {
					t.Errorf("Recommend during Save: %v", err)
					return
				}
			}
		}()
	}
	var buf bytes.Buffer
	err := eng.Save(&buf)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != eng.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), eng.Len())
	}
	if v := restored.Version(); v != liveVersion {
		t.Fatalf("restored view version = %d, want the persisted %d", v, liveVersion)
	}
	if eng.Version() != liveVersion {
		t.Fatalf("live version moved during save: %d -> %d", liveVersion, eng.Version())
	}

	// Identical rankings across the round-trip, for every query source.
	for _, q := range col.Queries {
		id := q.Sources[0]
		a, err := eng.Recommend(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Recommend(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s rank %d: live %+v vs restored %+v", id, i, a[i], b[i])
			}
		}
	}
}

// Crash-recovery story: snapshot + journal replay reproduces the state of
// an engine that applied the same updates live.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "eng.snap")
	walPath := filepath.Join(dir, "comments.wal")

	live, col := buildEngine(t, Options{})
	if err := live.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := live.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	src := col.Queries[0].Sources[0]
	batches := []map[string][]string{
		{src: {"wal-user-1", col.Users[0]}},
		{col.Items[1].ID: {"wal-user-2", col.Users[1], col.Users[2]}},
	}
	for _, b := range batches {
		if _, err := live.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// "Crash": rebuild from snapshot + journal.
	recovered, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	n, err := recovered.ReplayJournal(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(batches) {
		t.Fatalf("replayed %d batches, want %d", n, len(batches))
	}
	a, err := live.Recommend(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recovered.Recommend(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs after recovery: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCloseJournalIdempotent(t *testing.T) {
	eng, _ := buildEngine(t, Options{})
	if err := eng.CloseJournal(); err != nil {
		t.Errorf("close without journal: %v", err)
	}
	path := filepath.Join(t.TempDir(), "w.wal")
	if err := eng.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseJournal(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// Regression: replaying large (month-sized) journal batches must reproduce
// the live engine exactly — maintenance once depended on map iteration
// order for new-user assignment and diverged on replay.
func TestJournalRecoveryLargeBatches(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "eng.snap")
	walPath := filepath.Join(dir, "comments.wal")

	live, col := buildEngine(t, Options{SubCommunities: 40})
	if err := live.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := live.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		batch := map[string][]string{}
		for _, it := range col.Items {
			for _, cm := range it.Comments {
				if cm.Month == col.Opts.MonthsSource+m {
					batch[it.ID] = append(batch[it.ID], cm.User)
				}
			}
		}
		if _, err := live.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
	live.CloseJournal()

	recovered, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.ReplayJournal(walPath); err != nil {
		t.Fatal(err)
	}
	for _, q := range col.Queries {
		src := q.Sources[0]
		a, err := live.Recommend(src, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := recovered.Recommend(src, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", src, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s rank %d: %+v vs %+v", src, i, a[i], b[i])
			}
		}
	}
}

// A crash mid-journal-append (torn final record) must not block restart:
// replay tolerates the tail, AttachJournal truncates it, and new updates
// journal cleanly after the old garbage is gone.
func TestJournalRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "eng.snap")
	walPath := filepath.Join(dir, "comments.wal")

	live, col := buildEngine(t, Options{})
	if err := live.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := live.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	src := col.Queries[0].Sources[0]
	if _, err := live.ApplyUpdates(map[string][]string{src: {"wal-user", col.Users[0]}}); err != nil {
		t.Fatal(err)
	}
	if err := live.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// The crash: a partial record at the tail.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":2,"comments":{"torn":[`)
	f.Close()

	// Restart: snapshot + tolerant replay + tail-truncating attach.
	recovered, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	n, err := recovered.ReplayJournal(walPath)
	if err != nil {
		t.Fatalf("replay with torn tail failed startup: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d batches, want the 1 valid one", n)
	}
	if err := recovered.AttachJournal(walPath); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.ApplyUpdates(map[string][]string{src: {"post-crash-user", col.Users[1]}}); err != nil {
		t.Fatal(err)
	}
	if err := recovered.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// The repaired journal replays end to end: 1 pre-crash + 1 post-crash.
	third, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	total, err := third.ReplayJournal(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("final replay saw %d batches, want 2", total)
	}
}

// A process killed between writing the snapshot temp file and the rename
// must leave the previous snapshot loadable — restart recovers the old
// state instead of failing on a torn file.
func TestSaveFileKillDuringSnapshotRecovers(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "eng.snap")
	eng, col := buildEngine(t, Options{})
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	src := col.Queries[0].Sources[0]
	if _, err := eng.ApplyUpdates(map[string][]string{src: {"late-user", col.Users[0]}}); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.SnapshotCommit, faults.Error(nil))
	if err := eng.SaveFile(path); err == nil {
		t.Fatal("injected kill-during-snapshot not surfaced")
	}
	faults.Reset()

	restored, err := LoadFile(path)
	if err != nil {
		t.Fatalf("restart after killed snapshot failed: %v", err)
	}
	if restored.Len() != eng.Len() {
		t.Fatalf("restored %d clips, want %d", restored.Len(), eng.Len())
	}
	if _, err := restored.Recommend(src, 5); err != nil {
		t.Fatalf("recovered engine unserviceable: %v", err)
	}
}

// Snapshots written before the engine had one serving mode carry the
// deleted core options on the wire: testdata/legacy_sar_fullscan.snap was
// saved in CSF-SAR mode with the full-scan switch on, and
// testdata/legacy_cr_sr.snap with both the content-only and social-only
// switches on. Gob drops the unknown fields, so both load, and both serve
// SAR-H at their stored ω over the same 9 clips. The first answers bit for
// bit as the engine that saved it did (testdata/legacy_sar_fullscan.json,
// written by that engine: its dictionary and the partition map users alike,
// and the corpus is too small for a candidate budget to bind); the second,
// whose engine answered nothing with both switches on, now answers as the
// first.
func TestLoadLegacyModeSnapshots(t *testing.T) {
	var want map[string][]string
	b, err := os.ReadFile("testdata/legacy_sar_fullscan.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"legacy_sar_fullscan", "legacy_cr_sr"} {
		eng, err := LoadFile(filepath.Join("testdata", name+".snap"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Len() != len(want) {
			t.Fatalf("%s: %d clips, want %d", name, eng.Len(), len(want))
		}
		for id, answers := range want {
			recs, err := eng.Recommend(id, 5)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, id, err)
			}
			got := make([]string, len(recs))
			for i, r := range recs {
				got[i] = fmt.Sprintf("%s %016x %016x %016x", r.VideoID,
					math.Float64bits(r.Score), math.Float64bits(r.Content), math.Float64bits(r.Social))
			}
			if !slices.Equal(got, answers) {
				t.Errorf("%s: %s answers\n%v\nsaved engine answered\n%v", name, id, got, answers)
			}
		}
	}
}
