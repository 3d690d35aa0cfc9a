package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"videorec"
	"videorec/internal/shard"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// deployment is what the determinism tests save: a few fandoms of clips,
// built, then two comment batches, so the graph holds overlay edges, new
// users and a maintained partition.
type deployment interface {
	AddPrepared(videorec.PreparedClip) error
	Build()
	ApplyUpdates(map[string][]string) (videorec.UpdateSummary, error)
}

func populate(t *testing.T, d deployment) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for i := range 48 {
		series := make(signature.Series, 2+rng.Intn(3))
		for s := range series {
			cb := make([]signature.Cuboid, 4+rng.Intn(6))
			for k := range cb {
				cb[k] = signature.Cuboid{V: float64(rng.Intn(40) - 20), Mu: 1 / float64(len(cb))}
			}
			series[s].Cuboids = cb
		}
		fandom := i % 4
		users := []string{fmt.Sprintf("f%d-%d", fandom, rng.Intn(6)), fmt.Sprintf("f%d-%d", fandom, rng.Intn(6)), fmt.Sprintf("once-%d", i)}
		if err := d.AddPrepared(videorec.PreparedClip{ID: fmt.Sprintf("c%02d", i), Series: series, Desc: social.NewDescriptor(users[0], users[1:]...)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Build()
	for _, batch := range []map[string][]string{
		{"c00": {"f1-2", "stranger"}, "c05": {"f0-1", "f2-3"}},
		{"c07": {"stranger", "newcomer"}, "c12": {"f3-0", "f0-4"}},
	} {
		if _, err := d.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
}

func saveBytes(t *testing.T, e *videorec.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotBytesDeterministic: two saves of one state are the same bytes,
// and so is a save of the state a load of them restores — for an engine,
// for a 4-shard router's manifest and per-shard files, and for the
// replication bootstrap stream.
func TestSnapshotBytesDeterministic(t *testing.T) {
	e := videorec.New(videorec.Options{SubCommunities: 6})
	populate(t, e)
	first := saveBytes(t, e)
	if !bytes.Equal(first, saveBytes(t, e)) {
		t.Fatal("two saves of one engine differ")
	}
	loaded, err := videorec.Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, saveBytes(t, loaded)) {
		t.Fatal("a save of the loaded engine differs from the file it loaded")
	}

	var rep1, rep2, rep3 bytes.Buffer
	if _, err := e.WriteReplicationSnapshot(&rep1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteReplicationSnapshot(&rep2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1.Bytes(), rep2.Bytes()) || !bytes.Equal(rep1.Bytes(), first) {
		t.Fatal("replication snapshots of one state differ from each other or from Save")
	}
	if _, err := loaded.WriteReplicationSnapshot(&rep3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1.Bytes(), rep3.Bytes()) {
		t.Fatal("the replication snapshot of a loaded engine differs")
	}

	r, err := shard.New(4, videorec.Options{SubCommunities: 6})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, r)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	for _, dir := range dirs[:2] {
		if err := r.SaveFile(filepath.Join(dir, "dep")); err != nil {
			t.Fatal(err)
		}
	}
	reloaded, err := shard.LoadFile(filepath.Join(dirs[0], "dep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.SaveFile(filepath.Join(dirs[2], "dep")); err != nil {
		t.Fatal(err)
	}
	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(read(dirs[0], "dep"), read(dirs[1], "dep")) {
		t.Error("two saves of one router wrote different manifests")
	}
	for i := range 4 {
		name := filepath.Base(shard.ShardPath("dep", i))
		want := read(dirs[0], name)
		if !bytes.Equal(want, read(dirs[1], name)) {
			t.Errorf("two saves of one router differ in %s", name)
		}
		if !bytes.Equal(want, read(dirs[2], name)) {
			t.Errorf("a save of the reloaded router differs in %s", name)
		}
	}
}

// TestSaveWhileUpdating: a snapshot shares the engine's compiled series,
// descriptors, user names and partition, so saving it runs beside the
// writer. Batches that mint users, add edges and move the partition run
// while other goroutines save and reload; every file must load, and under
// -race no access may conflict.
func TestSaveWhileUpdating(t *testing.T) {
	e := videorec.New(videorec.Options{SubCommunities: 6})
	populate(t, e)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := e.Save(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := videorec.Load(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range 40 {
		clip := fmt.Sprintf("c%02d", i%48)
		if _, err := e.ApplyUpdates(map[string][]string{clip: {fmt.Sprintf("new-%d", i), fmt.Sprintf("f%d-%d", i%4, i%6)}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
