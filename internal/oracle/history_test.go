package oracle_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"videorec"
	"videorec/internal/community"
	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/oracle"
	"videorec/internal/shard"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// The history property: a seeded random sequence of adds, removes,
// re-ingests, comment batches, snapshot save + reload and journal replay is
// applied to a single engine and to routers of 1 and 4 shards, and after
// every step each deployment's top-10 for every stored clip must equal the
// oracle's bit for bit — ids, fused score and both component relevances.
// The oracle ranks the test's own model of the corpus (every clip's series
// and descriptor, kept from the operations alone) under the deployment's
// sub-community partition, so the property also pins what each deployment
// stores. The corpus stays small enough that the default candidate budgets
// (CandidateLimit 400, ContentProbe 512) never bind, which every query checks.

const historyTopK = 10

// pool is the clip material histories draw from: rendered clips with their
// compiled series, extracted once per test binary.
type pool struct {
	clips []videorec.Clip
	comp  []*signature.CompiledSeries
	users []string
}

var sharedPool *pool

func loadPool(t testing.TB) *pool {
	t.Helper()
	if sharedPool != nil {
		return sharedPool
	}
	o := dataset.DefaultOptions()
	o.Hours = 3
	o.Users = 50
	o.Seed = 7
	col := dataset.Generate(o)
	p := &pool{users: col.Users}
	sigOpts := core.DefaultOptions().Sig
	for _, it := range col.Items {
		v := it.Render(o.Synth)
		var commenters []string
		for _, cm := range it.Comments {
			if cm.Month < o.MonthsSource {
				commenters = append(commenters, cm.User)
			}
		}
		c := videorec.Clip{ID: it.ID, FPS: v.FPS, NominalSeconds: v.NominalSeconds, Owner: it.Owner, Commenters: commenters}
		for _, f := range v.Frames {
			c.Frames = append(c.Frames, videorec.Frame{W: f.W, H: f.H, Pix: f.Pix})
		}
		p.clips = append(p.clips, c)
		p.comp = append(p.comp, signature.CompileSeries(signature.Extract(v, sigOpts)))
	}
	sharedPool = p
	return p
}

// op is one step of a history. Every op is replayable on any state, so a
// failing history shrinks by dropping steps.
type op struct {
	kind    string // "add" (a new clip or a re-ingest, then Build), "remove", "update", "reload", "replay"
	id      string
	content int                 // add: pool clip whose frames the clip carries
	users   []string            // add: owner first, then commenters
	batch   map[string][]string // update, replay: the comment batch
}

func (o op) String() string {
	switch o.kind {
	case "add":
		return fmt.Sprintf("add(%s←%d,%d users)", o.id, o.content, len(o.users))
	case "remove":
		return "remove(" + o.id + ")"
	case "update", "replay":
		ids := make([]string, 0, len(o.batch))
		for id := range o.batch {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return fmt.Sprintf("%s(%s)", o.kind, strings.Join(ids, ","))
	}
	return o.kind
}

// model is the test's own account of what is stored: per id, the pool clip
// its content came from and its descriptor.
type model map[string]modelRec

type modelRec struct {
	content int
	desc    social.Descriptor
}

// apply advances the model by one op and reports whether the op names a
// stored clip where it must (a remove of a missing id must fail).
func (m model) apply(o op) bool {
	switch o.kind {
	case "add":
		m[o.id] = modelRec{content: o.content, desc: social.NewDescriptor(o.users[0], o.users[1:]...)}
	case "remove":
		if _, ok := m[o.id]; !ok {
			return false
		}
		delete(m, o.id)
	case "update", "replay":
		for id, users := range o.batch {
			if r, ok := m[id]; ok {
				r.desc = r.desc.Add(users...)
				m[id] = r
			}
		}
	}
	return true
}

// genHistory draws a history of n steps after the initial bulk load.
func genHistory(p *pool, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	m := model{}
	var h []op
	push := func(o op) {
		m.apply(o)
		h = append(h, o)
	}
	addOf := func(i int) op {
		c := p.clips[i]
		return op{kind: "add", id: c.ID, content: i, users: append([]string{c.Owner}, c.Commenters...)}
	}
	// The initial corpus: half the pool, each clip as the dataset made it.
	for _, i := range rng.Perm(len(p.clips))[:len(p.clips)/2] {
		push(addOf(i))
	}
	user := func() string {
		if rng.Intn(6) == 0 {
			return fmt.Sprintf("fresh-%d", rng.Intn(40))
		}
		return p.users[rng.Intn(len(p.users))]
	}
	batch := func() map[string][]string {
		b := map[string][]string{}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			id := p.clips[rng.Intn(len(p.clips))].ID // sometimes not stored: ignored
			for j := 1 + rng.Intn(3); j > 0; j-- {
				b[id] = append(b[id], user())
			}
		}
		return b
	}
	stored := func() string {
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}
	for len(h) < len(p.clips)/2+n {
		switch k := rng.Intn(10); {
		case k < 2:
			var absent []int
			for i, c := range p.clips {
				if _, ok := m[c.ID]; !ok {
					absent = append(absent, i)
				}
			}
			if len(absent) > 0 {
				push(addOf(absent[rng.Intn(len(absent))]))
			}
		case k < 3: // re-ingest: new content and a new audience under a stored id
			users := []string{user()}
			for j := rng.Intn(8); j > 0; j-- {
				users = append(users, user())
			}
			push(op{kind: "add", id: stored(), content: rng.Intn(len(p.clips)), users: users})
		case k < 5:
			if len(m) > 6 {
				push(op{kind: "remove", id: stored()})
			}
		case k < 8:
			push(op{kind: "update", batch: batch()})
		case k < 9:
			push(op{kind: "reload"})
		default:
			push(op{kind: "replay", batch: batch()})
		}
	}
	return h
}

// backend is what the history drives; *videorec.Engine and *shard.Router
// both provide it.
type backend interface {
	Add(videorec.Clip) error
	Build()
	Remove(string) error
	ApplyUpdates(map[string][]string) (videorec.UpdateSummary, error)
	RecommendCtx(context.Context, string, int) ([]videorec.Recommendation, videorec.RecommendMeta, error)
	NumShards() int
	ShardEngine(int) (*videorec.Engine, bool)
}

// shape is one deployment under test: how to make it, and how it persists.
type shape struct {
	name string
	make func() (backend, error)
	// reload saves to dir and restores from what it saved; replay does the
	// same around a journaled batch, restoring from the snapshot plus the
	// journal.
	reload func(b backend, dir string) (backend, error)
	replay func(b backend, dir string, batch map[string][]string) (backend, error)
}

var shapes = []shape{
	{
		name: "engine",
		make: func() (backend, error) { return videorec.New(videorec.Options{}), nil },
		reload: func(b backend, dir string) (backend, error) {
			path := filepath.Join(dir, "engine.snap")
			if err := b.(*videorec.Engine).SaveFile(path); err != nil {
				return nil, err
			}
			return videorec.LoadFile(path)
		},
		replay: func(b backend, dir string, batch map[string][]string) (backend, error) {
			e := b.(*videorec.Engine)
			snap, wal := filepath.Join(dir, "engine.snap"), filepath.Join(dir, fmt.Sprintf("engine-%d.wal", e.AppliedSeq()))
			if err := e.SaveFile(snap); err != nil {
				return nil, err
			}
			if err := e.AttachJournal(wal); err != nil {
				return nil, err
			}
			if _, err := e.ApplyUpdates(batch); err != nil {
				return nil, err
			}
			if err := e.CloseJournal(); err != nil {
				return nil, err
			}
			restored, err := videorec.LoadFile(snap)
			if err != nil {
				return nil, err
			}
			if n, err := restored.ReplayJournal(wal); err != nil || n != 1 {
				return nil, fmt.Errorf("replayed %d batches: %v", n, err)
			}
			return restored, nil
		},
	},
	routerShape(1),
	routerShape(4),
}

func routerShape(n int) shape {
	return shape{
		name: fmt.Sprintf("shards=%d", n),
		make: func() (backend, error) { return shard.New(n, videorec.Options{}) },
		reload: func(b backend, dir string) (backend, error) {
			path := filepath.Join(dir, "router.manifest")
			if err := b.(*shard.Router).SaveFile(path); err != nil {
				return nil, err
			}
			return shard.LoadFile(path)
		},
		replay: func(b backend, dir string, batch map[string][]string) (backend, error) {
			r := b.(*shard.Router)
			manifest, wal := filepath.Join(dir, "router.manifest"), filepath.Join(dir, fmt.Sprintf("router-%d.wal", r.AppliedSeq()))
			if err := r.SaveFile(manifest); err != nil {
				return nil, err
			}
			if err := r.AttachJournals(wal); err != nil {
				return nil, err
			}
			if _, err := r.ApplyUpdates(batch); err != nil {
				return nil, err
			}
			if err := r.CloseJournal(); err != nil {
				return nil, err
			}
			restored, err := shard.LoadFile(manifest)
			if err != nil {
				return nil, err
			}
			if _, err := restored.ReplayJournals(wal); err != nil {
				return nil, err
			}
			return restored, nil
		},
	}
}

// runHistory applies h to every shape and checks the property after each
// step. It returns the index of the first failing step (-1 if none) and
// what failed.
func runHistory(t *testing.T, p *pool, h []op) (int, error) {
	t.Helper()
	dir := t.TempDir()
	backends := make([]backend, len(shapes))
	for i, s := range shapes {
		if err := os.Mkdir(filepath.Join(dir, s.name), 0o755); err != nil {
			return 0, err
		}
		b, err := s.make()
		if err != nil {
			return 0, err
		}
		backends[i] = b
	}
	m := model{}
	built := false
	for step, o := range h {
		valid := m.apply(o)
		// The initial bulk load builds once, at its last add.
		bulk := !built && o.kind == "add" && (step+1 == len(h) || h[step+1].kind != "add")
		for i, s := range shapes {
			b, err := applyOp(backends[i], s, o, p, filepath.Join(dir, s.name), built || bulk)
			if o.kind == "remove" && !valid {
				if !errors.Is(err, videorec.ErrNotFound) {
					return step, fmt.Errorf("%s: removing a missing clip: got %v, want ErrNotFound", s.name, err)
				}
				continue
			}
			if err != nil {
				return step, fmt.Errorf("%s: %v", s.name, err)
			}
			backends[i] = b
		}
		if bulk {
			built = true
		}
		if !built {
			continue
		}
		if err := checkStep(p, m, backends); err != nil {
			return step, err
		}
	}
	return -1, nil
}

func applyOp(b backend, s shape, o op, p *pool, dir string, build bool) (backend, error) {
	switch o.kind {
	case "add":
		c := p.clips[o.content]
		c.ID, c.Owner, c.Commenters = o.id, o.users[0], o.users[1:]
		if err := b.Add(c); err != nil {
			return nil, err
		}
		if build {
			b.Build()
		}
	case "remove":
		return b, b.Remove(o.id)
	case "update":
		_, err := b.ApplyUpdates(o.batch)
		return b, err
	case "reload":
		return s.reload(b, dir)
	case "replay":
		return s.replay(b, dir, o.batch)
	}
	return b, nil
}

// checkStep holds every backend to the oracle over the model.
func checkStep(p *pool, m model, backends []backend) error {
	recs := make([]oracle.Record, 0, len(m))
	for id, r := range m {
		recs = append(recs, oracle.Record{ID: id, Compiled: p.comp[r.content], Desc: r.desc})
	}
	content := map[string][]float64{} // κJ depends on the model alone
	var firstPart *community.Partition
	for i, b := range backends {
		name := shapes[i].name
		part, err := checkStored(b, m, p)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if firstPart == nil {
			firstPart = part
		} else if !reflect.DeepEqual(part.AssignMap(), firstPart.AssignMap()) || part.Dim != firstPart.Dim {
			return fmt.Errorf("%s: sub-community partition differs from %s's", name, shapes[0].name)
		}
		o := oracle.New(recs, part, core.DefaultOptions().MatchThreshold)
		for id := range m {
			q, _ := o.Query(id)
			c, ok := content[id]
			if !ok {
				c = o.Content(q)
				content[id] = c
			}
			want := o.Fuse(c, o.SocialRelevance(q, oracle.SAR), core.DefaultOptions().Omega, historyTopK, id)
			got, meta, err := b.RecommendCtx(context.Background(), id, historyTopK)
			if err != nil {
				return fmt.Errorf("%s: query %s: %v", name, id, err)
			}
			if meta.Degraded || meta.Candidates != len(m)-1 {
				return fmt.Errorf("%s: query %s: %d candidates (degraded %v), want the %d other stored clips", name, id, meta.Candidates, meta.Degraded, len(m)-1)
			}
			if len(got) != len(want) {
				return fmt.Errorf("%s: query %s: %d results, oracle %d", name, id, len(got), len(want))
			}
			for k := range want {
				if got[k] != videorec.Recommendation(want[k]) {
					return fmt.Errorf("%s: query %s rank %d: got %+v, oracle %+v", name, id, k, got[k], want[k])
				}
			}
		}
	}
	return nil
}

// checkStored compares what the backend stores with the model — the id set,
// each clip's series and descriptor — and returns its partition, which every
// shard must share.
func checkStored(b backend, m model, p *pool) (*community.Partition, error) {
	var part *community.Partition
	seen := 0
	for i := 0; i < b.NumShards(); i++ {
		e, _ := b.ShardEngine(i)
		v, _ := e.CurrentView()
		if i == 0 {
			part = v.Partition()
		} else if v.Partition() != part && !reflect.DeepEqual(v.Partition().AssignMap(), part.AssignMap()) {
			return nil, fmt.Errorf("shard %d serves another partition", i)
		}
		for _, id := range v.SortedIDs() {
			want, ok := m[id]
			if !ok {
				return nil, fmt.Errorf("stores %s, which the model removed", id)
			}
			rec, _ := v.Record(id)
			if !slices.Equal(rec.Desc.Users(), want.desc.Users()) {
				return nil, fmt.Errorf("%s: descriptor %v, model %v", id, rec.Desc.Users(), want.desc.Users())
			}
			if !reflect.DeepEqual(rec.Compiled.Series(), p.comp[want.content].Series()) {
				return nil, fmt.Errorf("%s: stored series differs from pool clip %d's", id, want.content)
			}
			seen++
		}
	}
	if seen != len(m) {
		return nil, fmt.Errorf("stores %d clips, model %d", seen, len(m))
	}
	return part, nil
}

// shrink drops steps after the bulk load, one at a time, while the history
// still fails, and returns the shortest failing history found.
func shrink(t *testing.T, p *pool, h []op, bulk int) []op {
	for i := len(h) - 1; i >= bulk; i-- {
		cand := slices.Delete(slices.Clone(h), i, i+1)
		if at, _ := runHistory(t, p, cand); at >= 0 {
			h = cand[:at+1]
			i = min(i, len(h))
		}
	}
	return h
}

func TestHistoryMatchesOracle(t *testing.T) {
	p := loadPool(t)
	seeds, steps := 6, 30
	if testing.Short() {
		seeds, steps = 2, 12
	}
	bulk := len(p.clips) / 2
	for seed := int64(1); seed <= int64(seeds); seed++ {
		h := genHistory(p, seed, steps)
		at, err := runHistory(t, p, h)
		if at < 0 {
			continue
		}
		prefix := shrink(t, p, h[:at+1], bulk)
		lines := []string{fmt.Sprintf("build(%d clips)", bulk)}
		for _, o := range prefix[bulk:] {
			lines = append(lines, o.String())
		}
		_, err2 := runHistory(t, p, prefix)
		t.Fatalf("seed %d fails at step %d of %d: %v\nshortest failing prefix: %s\nwhich fails with: %v",
			seed, max(at-bulk+1, 0), len(h)-bulk, err, strings.Join(lines, " → "), err2)
	}
}
