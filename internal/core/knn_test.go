package core

import (
	"context"
	"testing"
	"time"

	"videorec/internal/faults"
)

func TestFilterAudiences(t *testing.T) {
	aud := map[string][]string{
		"v1": {"recurring", "oneshot-a"},
		"v2": {"recurring", "oneshot-b"},
	}
	got := FilterAudiences(aud, 2)
	for vid, users := range got {
		if len(users) != 1 || users[0] != "recurring" {
			t.Errorf("%s filtered to %v, want [recurring]", vid, users)
		}
	}
	// min <= 1 is the identity.
	same := FilterAudiences(aud, 1)
	if len(same["v1"]) != 2 {
		t.Error("min=1 should not filter")
	}
	// Duplicate appearances within one video count once.
	dup := map[string][]string{"v1": {"x", "x"}, "v2": {"y"}}
	if got := FilterAudiences(dup, 2); len(got["v1"]) != 0 {
		t.Errorf("duplicate-in-one-video user survived: %v", got["v1"])
	}
}

func TestCapAudience(t *testing.T) {
	users := []string{"a", "b", "c", "d", "e", "f"}
	if got := capAudience(users, 10); len(got) != 6 {
		t.Errorf("under cap: %v", got)
	}
	got := capAudience(users, 3)
	if len(got) != 3 {
		t.Fatalf("capped to %d, want 3", len(got))
	}
	// Strided sample stays deterministic and sorted-source-ordered.
	if got[0] != "a" {
		t.Errorf("first sample = %s", got[0])
	}
}

func TestAdHocQueryMatchesStored(t *testing.T) {
	r, c := buildSmall(t)
	it := c.Items[0]
	v := it.Render(c.Opts.Synth)
	rec, _ := r.Record(it.ID)
	q := r.AdHocQuery(v, rec.Desc)
	if len(q.Series) != len(rec.Compiled.Series()) {
		t.Fatalf("ad-hoc series %d signatures, stored %d", len(q.Series), len(rec.Compiled.Series()))
	}
	// Same clip, same options → identical signatures.
	for i := range q.Series {
		if len(q.Series[i].Cuboids) != len(rec.Compiled.Series()[i].Cuboids) {
			t.Fatalf("signature %d cuboid counts differ", i)
		}
	}
}

func TestContentProbeBudgetBinds(t *testing.T) {
	o := DefaultOptions()
	o.ContentProbe = 1
	o.CandidateLimit = 1
	r := NewRecommender(o)
	// Reuse the small collection fixture pipeline.
	r2, c := buildSmall(t)
	for _, id := range r2.SortedIDs() {
		rec, _ := r2.Record(id)
		r.IngestSeries(id, rec.Compiled.Series(), rec.Desc)
	}
	r.BuildSocial()
	src := c.Queries[0].Sources[0]
	q, _ := r.QueryFor(src)
	res := r.Recommend(q, 50, src)
	// With a 1-entry probe budget at most a couple of candidates appear.
	if len(res) > 3 {
		t.Errorf("probe budget did not bind: %d candidates refined", len(res))
	}
}

// RecommendCtx with a background context must be bit-identical to Recommend.
func TestRecommendCtxMatchesRecommend(t *testing.T) {
	r, c := buildSmall(t)
	v := r.Freeze()
	src := c.Queries[0].Sources[0]
	plain := v.RecommendID(src, 10)
	ctxed, info, err := v.RecommendIDCtx(context.Background(), src, 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded {
		t.Error("background context degraded")
	}
	if len(plain) != len(ctxed) {
		t.Fatalf("lengths %d vs %d", len(plain), len(ctxed))
	}
	for i := range plain {
		if plain[i] != ctxed[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, plain[i], ctxed[i])
		}
	}
}

func TestRecommendCtxPreCancelled(t *testing.T) {
	r, c := buildSmall(t)
	v := r.Freeze()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := v.RecommendIDCtx(ctx, c.Queries[0].Sources[0], 10)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled query returned %d results", len(res))
	}
}

// A cancellation landing mid-refinement must stop the worker pool well
// before the full EMD cost is paid, and the view must keep answering.
func TestRecommendCtxCancelMidRefine(t *testing.T) {
	defer faults.Reset()
	r, c := buildSmall(t)
	v := r.Freeze()
	src := c.Queries[0].Sources[0]
	full := v.RecommendID(src, 10)
	if len(full) == 0 {
		t.Fatal("fixture returns no results")
	}

	// 20ms per candidate score makes full refinement take candidate-count ×
	// 20ms; cancelling after 5ms must return in a small fraction of that.
	faults.Arm(faults.RefineScore, faults.Latency(20*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := v.RecommendIDCtx(ctx, src, 10)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, info, err := v.RecommendIDCtx(context.Background(), src, 10)
	if err != nil {
		t.Fatal(err)
	}
	budget := time.Duration(info.Candidates) * 20 * time.Millisecond / 2
	if elapsed >= budget {
		t.Errorf("cancelled refinement took %v, want well under %v (%d candidates)", elapsed, budget, info.Candidates)
	}
	faults.Reset()

	// The engine stays serviceable after a cancellation.
	again := v.RecommendID(src, 10)
	if len(again) != len(full) {
		t.Fatalf("post-cancel results %d, want %d", len(again), len(full))
	}
}

// A deadline inside the degrade margin answers with the coarse SAR ranking
// instead of an error.
func TestRecommendCtxDegradesNearDeadline(t *testing.T) {
	r, c := buildSmall(t)
	v := r.Freeze()
	src := c.Queries[0].Sources[0]
	// DefaultDegradeMargin is 20ms; a 15ms deadline leaves refinement inside
	// the margin while giving candidate gathering room to finish.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res, info, err := v.RecommendIDCtx(ctx, src, 10)
	if err != nil {
		t.Fatalf("near-deadline query errored: %v", err)
	}
	if !info.Degraded {
		t.Fatal("near-deadline query not flagged degraded")
	}
	if len(res) == 0 {
		t.Fatal("degraded query returned no results")
	}
	for _, re := range res {
		if re.Content != 0 {
			t.Errorf("degraded result %s has content relevance %g, want 0 (EMD skipped)", re.VideoID, re.Content)
		}
		if re.Score != re.Social {
			t.Errorf("degraded result %s: score %g != social %g", re.VideoID, re.Score, re.Social)
		}
	}
}

// A deadline expiring while refinement runs falls back to the coarse answer
// rather than surfacing DeadlineExceeded.
func TestRecommendCtxDegradesMidRefine(t *testing.T) {
	defer faults.Reset()
	r, c := buildSmall(t)
	v := r.Freeze()
	src := c.Queries[0].Sources[0]
	faults.Arm(faults.RefineScore, faults.Latency(10*time.Millisecond))
	// 50ms is past the 20ms margin (so refinement starts) but expires after
	// a few slowed candidate scores.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, info, err := v.RecommendIDCtx(ctx, src, 10)
	if err != nil {
		t.Fatalf("mid-refine deadline errored: %v", err)
	}
	if !info.Degraded {
		t.Fatal("mid-refine deadline expiry not flagged degraded")
	}
	if len(res) == 0 {
		t.Fatal("degraded fallback returned no results")
	}
}

// A negative DegradeMargin disables the fallback: the deadline surfaces as
// DeadlineExceeded.
func TestRecommendCtxDegradeDisabled(t *testing.T) {
	o := DefaultOptions()
	o.DegradeMargin = -1
	o.K = 12
	r2, c := buildSmall(t)
	r := NewRecommender(o)
	for _, id := range r2.SortedIDs() {
		rec, _ := r2.Record(id)
		r.IngestSeries(id, rec.Compiled.Series(), rec.Desc)
	}
	r.BuildSocial()
	v := r.Freeze()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, info, err := v.RecommendIDCtx(ctx, c.Queries[0].Sources[0], 10)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if info.Degraded {
		t.Error("degradation ran despite being disabled")
	}
}

// An injected scoring fault aborts the query with the fault's error and
// leaves the view serviceable.
func TestRecommendCtxInjectedFault(t *testing.T) {
	defer faults.Reset()
	r, c := buildSmall(t)
	v := r.Freeze()
	src := c.Queries[0].Sources[0]
	faults.Arm(faults.RefineScore, faults.Error(nil))
	_, _, err := v.RecommendIDCtx(context.Background(), src, 10)
	if err == nil {
		t.Fatal("injected fault not surfaced")
	}
	faults.Reset()
	if res := v.RecommendID(src, 10); len(res) == 0 {
		t.Fatal("view unserviceable after injected fault")
	}
}

func TestOptionsClamping(t *testing.T) {
	r := NewRecommender(Options{Omega: -2, K: -1, HashBuckets: -1})
	o := r.Options()
	if o.Omega != 0 {
		t.Errorf("Omega = %g, want clamped to 0", o.Omega)
	}
	if o.K != 60 {
		t.Errorf("K = %d, want defaulted to 60", o.K)
	}
	r2 := NewRecommender(Options{Omega: 2})
	if r2.Options().Omega != 1 {
		t.Errorf("Omega = %g, want clamped to 1", r2.Options().Omega)
	}
}
