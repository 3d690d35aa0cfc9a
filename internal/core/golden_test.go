package core

import (
	"testing"

	"videorec/internal/signature"
)

// buildGolden is buildSmallTweaked frozen into a view, so golden variants
// can set budgets and ω on the same generated collection.
func buildGolden(t testing.TB, mutate func(*Options)) *View {
	t.Helper()
	r, _ := buildSmallTweaked(t, mutate)
	return r.Freeze()
}

// unbounded is a candidate budget no test corpus reaches: every stored clip
// becomes a candidate and is refined.
const unbounded = 1 << 30

// modeVariants are the variants the golden and bound claims are checked
// against: the default, unbounded budgets, and each single-signal baseline
// (ω = 0 and ω = 1).
var modeVariants = []struct {
	name   string
	mutate func(*Options)
}{
	{"sarhash", nil},
	{"sarhash-fullscan", func(o *Options) { o.CandidateLimit, o.ContentProbe = unbounded, unbounded }},
	{"content-only", func(o *Options) { o.Omega = 0 }},
	{"social-only", func(o *Options) { o.Omega = 1 }},
}

// goldenQueries returns the first n stored ids in sorted order.
func goldenQueries(t *testing.T, v *View, n int) []string {
	t.Helper()
	ids := v.SortedIDs()
	if len(ids) > n {
		ids = ids[:n]
	}
	if len(ids) == 0 {
		t.Fatal("empty fixture")
	}
	return ids
}

func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Refinement's compiled layout must be a pure representation change: for
// every variant, asking for every gathered
// candidate (so the bound skips none and each one's κJ comes from the
// compiled kernel over the view's cached series) must return ids, fused
// scores and both component relevances bit-identical to the exhaustive
// reference, which scores with the raw-series signature.KJ. Both kernels
// route SimC through the same merge over identically stable-sorted cuboids,
// so not even floating-point summation order differs.
func TestCompiledRefineGolden(t *testing.T) {
	for _, tc := range modeVariants {
		t.Run(tc.name, func(t *testing.T) {
			v := buildGolden(t, tc.mutate)
			for _, id := range goldenQueries(t, v, 8) {
				q, ok := v.QueryFor(id)
				if !ok {
					t.Fatalf("missing record %s", id)
				}
				all := len(referenceCandidates(v, q, id))
				got := v.Recommend(q, all, id)
				if want := referenceRecommend(v, q, all, id); !resultsEqual(got, want) {
					t.Fatalf("query %s: compiled refinement differs from the raw-κJ reference\ncompiled:  %+v\nreference: %+v", id, got, want)
				}
				if len(got) == 0 {
					t.Fatalf("query %s returned no results", id)
				}
			}
		})
	}
}

// A zero-value Query (no precompiled series) must take the compile-on-demand
// path and still match the raw-κJ reference bit-for-bit.
func TestCompiledRefineGoldenAdHoc(t *testing.T) {
	v := buildGolden(t, nil)
	id := v.SortedIDs()[0]
	rec, _ := v.Record(id)
	raw := Query{Series: rec.Compiled.Series(), Desc: rec.Desc} // comp deliberately nil
	got := v.Recommend(raw, 10, id)
	if want := referenceRecommend(v, raw, 10, id); !resultsEqual(got, want) {
		t.Fatalf("ad-hoc query: compiled %+v != reference %+v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("ad-hoc query returned no results")
	}
}

// The per-candidate refinement step — compiled κJ between a real query and a
// real stored record, with a warmed scratch — must allocate nothing.
func TestRefineStepZeroAlloc(t *testing.T) {
	v := buildGolden(t, nil)
	ids := v.SortedIDs()
	if len(ids) < 2 {
		t.Fatal("fixture too small")
	}
	q, _ := v.QueryFor(ids[0])
	qc := q.compiled()
	rec, _ := v.Record(ids[1])
	var scratch signature.KJScratch
	// Warm the scratch against every stored record so the measured loop hits
	// its steady-state high-water mark.
	for _, id := range ids {
		r, _ := v.Record(id)
		signature.KJCancelCompiled(qc, r.Compiled, v.Options().MatchThreshold, nil, &scratch)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		kj, _ := signature.KJCancelCompiled(qc, rec.Compiled, v.Options().MatchThreshold, nil, &scratch)
		sink += kj
	})
	if allocs != 0 {
		t.Fatalf("per-candidate refine step allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}
