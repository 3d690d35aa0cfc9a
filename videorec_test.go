package videorec

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"videorec/internal/dataset"
	"videorec/internal/signature"
	"videorec/internal/video"
)

// clipFrom converts an internal synthetic video into a public Clip.
func clipFrom(v *video.Video, owner string, commenters ...string) Clip {
	c := Clip{
		ID:             v.ID,
		FPS:            v.FPS,
		NominalSeconds: v.NominalSeconds,
		Owner:          owner,
		Commenters:     commenters,
	}
	for _, f := range v.Frames {
		c.Frames = append(c.Frames, Frame{W: f.W, H: f.H, Pix: append([]float64(nil), f.Pix...)})
	}
	return c
}

// buildEngine ingests a small synthetic community through the public API.
func buildEngine(t testing.TB, opts Options) (*Engine, *dataset.Collection) {
	t.Helper()
	o := dataset.DefaultOptions()
	o.Hours = 3
	o.Users = 120
	o.Seed = 21
	col := dataset.Generate(o)
	eng := New(opts)
	for _, it := range col.Items {
		v := it.Render(o.Synth)
		var commenters []string
		for _, cm := range it.Comments {
			if cm.Month < o.MonthsSource {
				commenters = append(commenters, cm.User)
			}
		}
		clip := clipFrom(v, it.Owner, commenters...)
		clip.ID = it.ID
		if err := eng.Add(clip); err != nil {
			t.Fatalf("Add(%s): %v", it.ID, err)
		}
	}
	eng.Build()
	return eng, col
}

func TestAddValidation(t *testing.T) {
	eng := New(Options{})
	if err := eng.Add(Clip{}); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id: got %v", err)
	}
	if err := eng.Add(Clip{ID: "x"}); !errors.Is(err, ErrNoFrames) {
		t.Errorf("no frames: got %v", err)
	}
	bad := Clip{ID: "x", Frames: []Frame{{W: 2, H: 2, Pix: []float64{1}}}}
	if err := eng.Add(bad); err == nil {
		t.Error("inconsistent frame accepted")
	}
}

// overflowClip has a frame whose W·H overflows int and wraps to 0 = len(Pix).
func overflowClip() Clip {
	return Clip{ID: "huge", Frames: []Frame{{W: math.MaxInt/2 + 1, H: 4}}}
}

// A frame whose W·H wraps around to len(Pix) must be rejected as
// inconsistent on every path that decodes clip frames.
func TestOverflowingFrameRejected(t *testing.T) {
	eng := New(Options{})
	huge := overflowClip()
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "inconsistent dimensions") {
			t.Errorf("%s: got %v, want an inconsistent-dimensions error", path, err)
		}
	}
	check("Add", eng.Add(huge))
	_, err := eng.RecommendClip(huge, 3)
	check("RecommendClip", err)
	if eng.Len() != 0 {
		t.Errorf("engine holds %d clips after rejected adds", eng.Len())
	}
}

func TestRecommendLifecycle(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	if eng.Len() != len(col.Items) {
		t.Fatalf("Len = %d, want %d", eng.Len(), len(col.Items))
	}
	if eng.SubCommunities() == 0 {
		t.Error("no sub-communities after Build")
	}
	src := col.Queries[0].Sources[0]
	recs, err := eng.Recommend(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) > 10 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	for i, r := range recs {
		if r.VideoID == src {
			t.Error("query video recommended to itself")
		}
		if i > 0 && r.Score > recs[i-1].Score {
			t.Error("results unsorted")
		}
	}
}

func TestRecommendErrors(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.Recommend("x", 5); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("before Build: got %v", err)
	}
	built, _ := buildEngine(t, Options{})
	if _, err := built.Recommend("no-such", 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: got %v", err)
	}
}

func TestRecommendClipAdHoc(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	// An anonymous visitor watching an edited copy of a stored clip.
	orig := col.Items[0]
	v := orig.Render(col.Opts.Synth)
	edited := video.Brighten(v, 15)
	edited.ID = "adhoc-view"
	clip := clipFrom(edited, "", col.Users[0], col.Users[1])
	recs, err := eng.RecommendClip(clip, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations for ad-hoc clip")
	}
	if _, err := eng.RecommendClip(Clip{ID: "x"}, 5); !errors.Is(err, ErrNoFrames) {
		t.Errorf("frameless ad-hoc clip: got %v", err)
	}
}

func TestApplyUpdatesPublic(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	target := col.Items[0].ID
	sum, err := eng.ApplyUpdates(map[string][]string{
		target: {"newcomer-a", "newcomer-b", col.Users[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.NewConnections == 0 {
		t.Error("no connections derived")
	}
	if sum.VideosRevectorized == 0 {
		t.Error("nothing re-vectorized")
	}
	// Engine still answers queries.
	if _, err := eng.Recommend(col.Queries[0].Sources[0], 5); err != nil {
		t.Fatal(err)
	}
	// Before build: error.
	fresh := New(Options{})
	if _, err := fresh.ApplyUpdates(nil); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("updates before Build: got %v", err)
	}
}

// ContentOnly and SocialOnly are ω = 0 and ω = 1: each baseline's score is
// exactly the one relevance it ranks by.
func TestBaselineOptions(t *testing.T) {
	for _, opts := range []Options{
		{ContentOnly: true},
		{SocialOnly: true},
		{Omega: 0.5, SubCommunities: 12},
	} {
		eng, col := buildEngine(t, opts)
		recs, err := eng.Recommend(col.Queries[0].Sources[0], 5)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(recs) == 0 {
			t.Fatalf("opts %+v: empty results", opts)
		}
		for _, r := range recs {
			if opts.ContentOnly && r.Score != r.Content {
				t.Errorf("ContentOnly score %g != content %g", r.Score, r.Content)
			}
			if opts.SocialOnly && r.Score != r.Social {
				t.Errorf("SocialOnly score %g != social %g", r.Score, r.Social)
			}
		}
	}
}

func TestFrameClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := video.Synthesize("c", 1, video.DefaultSynthOptions(), rng)
	clip := clipFrom(v, "owner", "u1")
	clip.Frames[0].Pix[0] = -50
	clip.Frames[0].Pix[1] = 999
	eng := New(Options{})
	if err := eng.Add(clip); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRemove(t *testing.T) {
	eng, col := buildEngine(t, Options{})
	victim := col.Items[3].ID
	if err := eng.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := eng.Remove(victim); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: got %v", err)
	}
	src := col.Queries[0].Sources[0]
	if src == victim {
		src = col.Queries[0].Sources[1]
	}
	recs, err := eng.Recommend(src, eng.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.VideoID == victim {
			t.Fatalf("removed clip %s still recommended", victim)
		}
	}
	// Build compacts and the engine keeps working.
	eng.Build()
	if _, err := eng.Recommend(src, 5); err != nil {
		t.Fatal(err)
	}
}

// TestAddPreparedRejectsOversizedSignature: a prepared series is the one
// ingest input extraction has not bounded, and a signature past
// signature.MaxCuboids cannot be compiled, so AddPrepared refuses it.
func TestAddPreparedRejectsOversizedSignature(t *testing.T) {
	e := New(Options{})
	big := signature.Series{{Cuboids: make([]signature.Cuboid, signature.MaxCuboids+1)}}
	if err := e.AddPrepared(PreparedClip{ID: "big", Series: big}); !errors.Is(err, ErrSignatureTooLarge) {
		t.Fatalf("AddPrepared = %v, want ErrSignatureTooLarge", err)
	}
	if e.Len() != 0 {
		t.Fatalf("the rejected clip was stored: %d videos", e.Len())
	}
}
