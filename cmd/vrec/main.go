// Command vrec drives the recommender end to end on a synthetic sharing
// community: generate a collection, build the content and social indexes,
// answer Table 2 queries, and replay social updates.
//
// Usage:
//
//	vrec stats     [-hours H] [-users U] [-seed S]
//	vrec recommend [-hours H] [-users U] [-seed S] [-query q1..q5] [-topk N] [-omega W] [-k K] [-mode sarh|cr|sr]
//	vrec update    [-hours H] [-users U] [-seed S] [-months M]
//	vrec export    [-hours H] [-users U] [-seed S] [-out DIR] [-count N]   write clips as .vv files
//	vrec identify  [-hours H] [-users U] [-seed S] [-file clip.vv] [-topk N]   recommend for an on-disk clip
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/experiments"
	"videorec/internal/social"
	"videorec/internal/video"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	hours := fs.Float64("hours", 8, "nominal collection size in hours")
	users := fs.Int("users", 250, "community size")
	seed := fs.Int64("seed", 1, "generation seed")
	query := fs.String("query", "q1", "query id (q1..q5) whose first source video is the input")
	topk := fs.Int("topk", 10, "recommendations to return")
	omega := fs.Float64("omega", 0.7, "social weight in the fusion")
	k := fs.Int("k", 60, "sub-community count")
	mode := fs.String("mode", "sarh", "sarh (fused at -omega), cr (content only, omega 0) or sr (social only, omega 1); CSF and CSF-SAR run as: go run ./cmd/experiments -exp fig12a")
	months := fs.Int("months", 4, "test-period months to replay")
	outDir := fs.String("out", "clips", "output directory for export")
	count := fs.Int("count", 10, "clips to export")
	file := fs.String("file", "", "clip file (.vv) to identify")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	o := dataset.DefaultOptions()
	o.Hours = *hours
	o.Users = *users
	o.Seed = *seed
	fmt.Printf("generating %.0fh synthetic community (%d users, seed %d)...\n", *hours, *users, *seed)
	col := dataset.Generate(o)
	fmt.Printf("collection: %d videos, %.1f nominal hours\n", len(col.Items), col.Hours())

	switch cmd {
	case "stats":
		stats(col)
	case "recommend":
		rec := build(col, *omega, *k, *mode)
		recommend(rec, col, *query, *topk)
	case "update":
		rec := build(col, *omega, *k, *mode)
		replay(rec, col, *months)
		recommend(rec, col, *query, *topk)
	case "export":
		export(col, *outDir, *count)
	case "identify":
		if *file == "" {
			fmt.Fprintln(os.Stderr, "identify requires -file")
			os.Exit(2)
		}
		rec := build(col, *omega, *k, *mode)
		identify(rec, col, *file, *topk)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vrec <stats|recommend|update|export|identify> [flags]  (run 'vrec recommend -h' for flags)")
	os.Exit(2)
}

// export renders the first clips of the collection into .vv files.
func export(col *dataset.Collection, dir string, count int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := 0
	for _, it := range col.Items {
		if n >= count {
			break
		}
		v := it.Render(col.Opts.Synth)
		path := filepath.Join(dir, it.ID+".vv")
		if err := video.WriteFile(path, v); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d frames, topic %d)\n", path, len(v.Frames), it.Topic)
		n++
	}
}

// identify loads an on-disk clip and recommends against the collection —
// the anonymous-viewer flow driven from a file.
func identify(rec *core.Recommender, col *dataset.Collection, path string, topk int) {
	v, err := video.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nidentifying %s (%d frames) against the collection:\n", path, len(v.Frames))
	q := rec.AdHocQuery(v, social.NewDescriptor(""))
	start := time.Now()
	results := rec.Recommend(q, topk) // no exclusion: identification wants the source itself
	for i, r := range results {
		note := ""
		if it, ok := col.ByID[r.VideoID]; ok && (it.ID == v.ID || it.DupOf() == v.ID) {
			note = " (same footage)"
		}
		fmt.Printf("%3d. %-8s score %.4f  content %.4f  social %.4f%s\n",
			i+1, r.VideoID, r.Score, r.Content, r.Social, note)
	}
	fmt.Printf("answered in %v\n", time.Since(start).Round(time.Microsecond))
}

func build(col *dataset.Collection, omega float64, k int, mode string) *core.Recommender {
	opts := core.DefaultOptions()
	opts.Omega = omega
	opts.K = k
	switch mode {
	case "sarh":
	case "cr":
		opts.Omega = 0
	case "sr":
		opts.Omega = 1
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", mode)
		os.Exit(2)
	}
	rec := core.NewRecommender(opts)
	start := time.Now()
	for _, it := range col.Items {
		v := it.Render(col.Opts.Synth)
		rec.IngestVideo(it.ID, v, experiments.SourceDescriptor(col, it))
		v.ReleaseFrames()
	}
	rec.BuildSocial()
	fmt.Printf("ingested and indexed in %v; %d sub-communities extracted\n",
		time.Since(start).Round(time.Millisecond), rec.Partition().Dim)
	return rec
}

func stats(col *dataset.Collection) {
	comments := 0
	for _, it := range col.Items {
		comments += len(it.Comments)
	}
	fmt.Printf("comments: %d over %d months (%d source + %d test)\n",
		comments, col.Opts.MonthsSource+col.Opts.MonthsTest, col.Opts.MonthsSource, col.Opts.MonthsTest)
	dups := 0
	for _, it := range col.Items {
		if it.DupOf() != "" {
			dups++
		}
	}
	fmt.Printf("near-duplicates: %d of %d videos\n", dups, len(col.Items))
	for _, q := range col.Queries {
		fmt.Printf("query %-3s %-15q sources %v\n", q.ID, q.Text, q.Sources)
	}
}

func recommend(rec *core.Recommender, col *dataset.Collection, queryID string, topk int) {
	var src string
	for _, q := range col.Queries {
		if q.ID == queryID && len(q.Sources) > 0 {
			src = q.Sources[0]
		}
	}
	if src == "" {
		fmt.Fprintf(os.Stderr, "unknown query %q\n", queryID)
		os.Exit(2)
	}
	fmt.Printf("\nrecommending for %s (query %s, topic %d):\n", src, queryID, col.ByID[src].Topic)
	start := time.Now()
	results := rec.RecommendID(src, topk)
	elapsed := time.Since(start)
	for i, r := range results {
		it := col.ByID[r.VideoID]
		note := ""
		if it.DupOf() == src || (it.DupOf() != "" && it.DupOf() == col.ByID[src].DupOf()) {
			note = " (near-duplicate)"
		} else if it.Topic == col.ByID[src].Topic {
			note = " (same topic)"
		}
		fmt.Printf("%3d. %-8s score %.4f  content %.4f  social %.4f  relevance %.2f%s\n",
			i+1, r.VideoID, r.Score, r.Content, r.Social, col.Relevance(src, r.VideoID), note)
	}
	fmt.Printf("answered in %v\n", elapsed.Round(time.Microsecond))
}

func replay(rec *core.Recommender, col *dataset.Collection, months int) {
	if months > col.Opts.MonthsTest {
		months = col.Opts.MonthsTest
	}
	for m := 0; m < months; m++ {
		batch := map[string][]string{}
		for _, it := range col.Items {
			for _, cm := range it.Comments {
				if cm.Month == col.Opts.MonthsSource+m {
					batch[it.ID] = append(batch[it.ID], cm.User)
				}
			}
		}
		start := time.Now()
		rep := rec.ApplyUpdates(batch)
		fmt.Printf("month %d: %d connections, %d unions, %d splits, %d videos re-vectorized (%v)\n",
			m+1, rep.Maintenance.NewConnections, rep.Maintenance.Unions,
			rep.Maintenance.Splits, rep.VideosRevectorized,
			time.Since(start).Round(time.Millisecond))
	}
}
