package main

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/signature"
	"videorec/internal/store"
)

// extractedShape measures what the rendered-frame pipeline really produces
// at one nominal hour: the figures the signature-level generator stands in
// for.
func extractedShape(t *testing.T) (sigsPerVideo, cuboidsPerSig float64) {
	t.Helper()
	o := dataset.DefaultOptions()
	o.Hours = 1
	col := dataset.Generate(o)
	var sigs, cuboids int
	for _, it := range col.Items {
		series := signature.Extract(it.Render(o.Synth), signature.DefaultOptions())
		sigs += len(series)
		for _, s := range series {
			cuboids += len(s.Cuboids)
		}
	}
	return float64(sigs) / float64(len(col.Items)), float64(cuboids) / float64(sigs)
}

func TestGeneratorMatchesExtractedShape(t *testing.T) {
	wantSigs, wantCuboids := extractedShape(t)
	c := genCorpus(7, 2000, 2000)

	var sigs, cuboids, dups int
	var audiences []float64
	for _, cl := range c.clips {
		sigs += len(cl.series)
		for _, s := range cl.series {
			cuboids += len(s.Cuboids)
			if n := len(s.Cuboids); n < 9 || n > 52 {
				t.Fatalf("%s: signature with %d cuboids, extraction yields 9 to 52", cl.id, n)
			}
			if mass := s.TotalMass(); mass != 1 {
				t.Fatalf("%s: Σμ = %v, want exactly 1", cl.id, mass)
			}
		}
		if cl.dupOf >= 0 {
			dups++
			if c.clips[cl.dupOf].topic != cl.topic {
				t.Fatalf("%s re-edits a clip of another topic", cl.id)
			}
		}
		audiences = append(audiences, float64(cl.desc().Len()))
	}
	gotSigs := float64(sigs) / float64(len(c.clips))
	gotCuboids := float64(cuboids) / float64(sigs)
	// Within a quarter of the extracted figures (probe: ≈ 8 and ≈ 30).
	if math.Abs(gotSigs-wantSigs) > 0.25*wantSigs {
		t.Errorf("signatures per video: generated %.2f, extracted %.2f", gotSigs, wantSigs)
	}
	if math.Abs(gotCuboids-wantCuboids) > 0.25*wantCuboids {
		t.Errorf("cuboids per signature: generated %.2f, extracted %.2f", gotCuboids, wantCuboids)
	}
	if f := float64(dups) / float64(len(c.clips)); f < 0.18 || f > 0.30 {
		t.Errorf("near-duplicate share %.3f, want about %.2f", f, dupFraction)
	}
	// Heavy-tailed audiences: a median near ten, a long right tail, the cap.
	sort.Float64s(audiences)
	med, p99, top := quantile(audiences, 0.5), quantile(audiences, 0.99), audiences[len(audiences)-1]
	if med < 6 || med > 14 {
		t.Errorf("median audience %.0f, want 6 to 14", med)
	}
	if p99 < 3*med {
		t.Errorf("p99 audience %.0f is under 3× the median %.0f: the tail is not heavy", p99, med)
	}
	if top > commentCap+1 {
		t.Errorf("largest audience %.0f exceeds the cap", top)
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Same-topic clips share footage: a re-edit stays a content match of its
// original, clips of different topics do not match.
func TestGeneratorContentStructure(t *testing.T) {
	c := genCorpus(7, 2000, 2000)
	thr := core.DefaultOptions().MatchThreshold
	var dup, cross []float64
	for i, cl := range c.clips {
		if cl.dupOf >= 0 {
			dup = append(dup, signature.KJ(cl.series, c.clips[cl.dupOf].series, thr))
		}
		if other := c.clips[(i+977)%len(c.clips)]; other.topic != cl.topic {
			cross = append(cross, signature.KJ(cl.series, other.series, thr))
		}
		if len(dup) >= 100 && len(cross) >= 100 {
			break
		}
	}
	if m := mean(dup); m < 0.6 {
		t.Errorf("mean κJ between a re-edit and its original is %.3f, want ≥ 0.6", m)
	}
	if m := mean(cross); m > 0.1 {
		t.Errorf("mean κJ across topics is %.3f, want ≤ 0.1", m)
	}
}

// The fandoms must come out of sub-community extraction as sub-communities.
// Single-linkage extraction collapses into one giant component as soon as
// light cross-fandom edges outnumber k; every SAR vector then has one
// dimension and the inverted files stop being an index.
func TestGeneratorKeepsFandomsSeparable(t *testing.T) {
	c := genCorpus(7, 2000, 2000)
	rec := c.bulkLoad()
	rec.BuildSocial()
	perDim := rec.VideosPerDim()
	sizable := 0
	for _, n := range perDim {
		if n > len(c.clips)/2 {
			t.Fatalf("one sub-community touches %d of %d clips: %v", n, len(c.clips), perDim)
		}
		if n >= 20 {
			sizable++
		}
	}
	if sizable < topics*3/4 {
		t.Errorf("%d sub-communities of 20+ clips, want at least %d of the %d fandoms: %v", sizable, topics*3/4, topics, perDim)
	}
}

// ingestOnly saves the corpus as an unbuilt snapshot. (A built snapshot
// holds the partition as a map, which gob writes in iteration order.)
func ingestOnly(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Save(&buf, genCorpus(seed, 300, 600).bulkLoad().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, other := ingestOnly(t, 3), ingestOnly(t, 3), ingestOnly(t, 4)
	if !bytes.Equal(a, b) {
		t.Error("one seed produced two different snapshots")
	}
	if bytes.Equal(a, other) {
		t.Error("two seeds produced the same snapshot")
	}

	c := genCorpus(3, 300, 600)
	w := workload{zipf: true, checks: 8}
	in1, in2 := newInputs(w, 3, c), newInputs(w, 3, genCorpus(3, 300, 600))
	for i := range in1.clicks {
		if in1.clicks[i] != in2.clicks[i] {
			t.Fatalf("click %d differs between two runs of one seed", i)
		}
	}
	for i := range in1.batches {
		if len(in1.batches[i]) != len(in2.batches[i]) {
			t.Fatalf("comment batch %d differs between two runs of one seed", i)
		}
	}
}
