// Command vrecd serves the recommender over HTTP — the online deployment
// shape of the paper's system. It optionally restores a snapshot at start
// and persists one on demand (POST /snapshot) or on shutdown.
//
//	vrecd [-addr :8080] [-shards N] [-snapshot engine.snap] [-journal engine.wal]
//	      [-demo hours] [-query-timeout 2s] [-max-inflight 256] [-max-queue N]
//	      [-limit-floor 0] [-limit-ceiling 0] [-adjust-window 100ms]
//	      [-brownout] [-brownout-margin 10ms]
//	      [-max-k 100] [-replica-of http://primary:8080] [-max-replica-lag 64]
//	      [-shard-margin 0] [-shard-quorum 0] [-breaker-threshold 5]
//	      [-breaker-backoff 200ms] [-pprof localhost:6060]
//
// With -demo N the server starts pre-loaded with an N-hour synthetic
// community, ready to answer /recommend immediately. The resilience flags
// bound every recommendation query: requests beyond -max-inflight queue up
// to -max-queue deep and are then shed with 503 + Retry-After, and a query
// whose -query-timeout passes mid-refinement answers degraded (exact scores
// for what it refined, a lower bound for the rest) instead of erroring.
//
// With -limit-ceiling > 0 the concurrency limit adapts by latency gradient:
// it probes upward from -max-inflight toward the ceiling while observed
// latency tracks the no-queue baseline and backs off multiplicatively (never
// below -limit-floor) when latency inflates; /stats reports the live limit.
// The wait queue is deadline-aware — a queued query whose remaining budget
// cannot cover the expected service time is answered 504 immediately — and
// Retry-After on refusals is computed from queue depth over drain rate.
// With -brownout, sustained queue pressure browns out queries (tier 1: those
// that waited; tier 2: all) by shrinking their deadline to -brownout-margin,
// which bounds how long they refine instead of letting them queue toward the
// deadline; a browned query the margin cuts answers degraded:true, never
// cached.
//
// With -shards N (N > 1) the corpus is partitioned across N shard engines
// behind a scatter-gather router: queries fan out to every shard in parallel
// and the merged top-K is bit-identical to a single-shard deployment.
// -snapshot and -journal then name per-deployment base paths — each shard
// persists to <base>.shard<i> with a manifest at the base path — and /stats
// reports a per-shard breakdown. POST /shards/drain?shard=i retires a shard
// live, redistributing its videos across the survivors.
//
// The sharded fan-out tolerates per-shard failure: -shard-margin carves a
// per-shard budget out of each request deadline (a stuck shard times out
// while the router keeps merge headroom), -breaker-threshold consecutive
// failures open that shard's circuit breaker (half-open probes with jittered
// backoff starting at -breaker-backoff recover it), and -shard-quorum >= 1
// lets the merge answer partially (degraded:true, shardsFailed/shardsTotal
// in the response) as long as that many shards answered — below quorum the
// query 503s with Retry-After. -shard-quorum 0 keeps the strict default:
// every shard must answer.
//
// With -replica-of the process runs as a read-only replica: it bootstraps
// from the primary's snapshot, tails its journal, rejects mutating requests
// with 403, and reports ready on /readyz only once its replication lag is
// within -max-replica-lag batches. -snapshot and -journal then name the
// replica's local persistence, so restarts resume from local state instead
// of re-downloading history. Against a sharded primary, pass the matching
// -shards N: the replica runs one puller per shard stream and serves reads
// through its own local router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only via -pprof
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"videorec"
	"videorec/internal/dataset"
	"videorec/internal/replica"
	"videorec/internal/server"
	"videorec/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 1, "shard engines behind the scatter-gather router (1 = unsharded)")
	snapshot := flag.String("snapshot", "", "snapshot path: restored at start if present, saved on shutdown")
	journal := flag.String("journal", "", "comment journal (WAL): replayed at start, appended on every update")
	demo := flag.Float64("demo", 0, "pre-load an N-hour synthetic community (0 = start empty)")
	queryTimeout := flag.Duration("query-timeout", 2*time.Second, "per-query deadline; a query it cuts mid-refinement answers degraded (0 = none)")
	maxInflight := flag.Int("max-inflight", 256, "max concurrently executing queries (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max queries queued for a slot before shedding (0 = same as -max-inflight)")
	limitFloor := flag.Int("limit-floor", 0, "adaptive concurrency limit floor (0 = default 1; needs -limit-ceiling)")
	limitCeiling := flag.Int("limit-ceiling", 0, "adaptive concurrency limit ceiling; the limiter probes between floor and ceiling by latency gradient (0 = fixed -max-inflight limit)")
	adjustWindow := flag.Duration("adjust-window", 0, "adaptive limiter adjustment cadence (0 = default 100ms)")
	brownout := flag.Bool("brownout", false, "under queue pressure, shrink query deadlines to -brownout-margin instead of queueing toward the deadline")
	brownoutMargin := flag.Duration("brownout-margin", 0, "deadline left to a browned-out query, bounding how long it refines (0 = default 10ms)")
	maxK := flag.Int("max-k", 100, "cap on the k query parameter")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (503) responses")
	replicaOf := flag.String("replica-of", "", "run as a read-only replica of this primary URL")
	maxReplicaLag := flag.Uint64("max-replica-lag", 64, "readiness threshold: max replication lag in batches")
	shardMargin := flag.Duration("shard-margin", 0, "per-shard budget margin under the request deadline (sharded; 0 = no per-shard budget)")
	shardQuorum := flag.Int("shard-quorum", 0, "min shards that must answer; partial answers above it are degraded (0 = all shards required)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive shard failures that open its circuit breaker (0 = default 5, <0 = disabled)")
	breakerBackoff := flag.Duration("breaker-backoff", 0, "initial open interval before a breaker's half-open probe (0 = default 200ms)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		// The pprof mux stays off the serving listener so profiling endpoints
		// are never exposed on the public address and profile downloads don't
		// compete with query traffic for the serving accept loop.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	cfg := server.Config{
		SnapshotPath:   *snapshot,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		LimitFloor:     *limitFloor,
		LimitCeiling:   *limitCeiling,
		AdjustWindow:   *adjustWindow,
		Brownout:       *brownout,
		BrownoutMargin: *brownoutMargin,
		QueryTimeout:   *queryTimeout,
		MaxK:           *maxK,
		RetryAfter:     *retryAfter,
	}

	if *shards < 1 {
		log.Fatalf("-shards must be >= 1, got %d", *shards)
	}
	var eng server.Backend
	var runReplica func(context.Context)
	if *replicaOf != "" {
		n := *shards
		engines := make([]*videorec.Engine, n)
		reps := make([]*replica.Replica, n)
		for i := range reps {
			rep, err := replica.Open(replica.Config{
				Primary:      *replicaOf,
				Shard:        i,
				SnapshotPath: shardedPath(*snapshot, i, n),
				JournalPath:  shardedPath(*journal, i, n),
				Logf:         log.Printf,
			})
			if err != nil {
				log.Fatal(err)
			}
			reps[i], engines[i] = rep, rep.Engine()
		}
		if n == 1 {
			eng = engines[0]
		} else {
			router, err := shard.NewFromEngines(engines)
			if err != nil {
				log.Fatal(err)
			}
			applyResilience(router, *shardMargin, *shardQuorum, *breakerThreshold, *breakerBackoff)
			eng = router
		}
		cfg.ReadOnly = true
		cfg.SnapshotPath = "" // POST /snapshot is the primary's concern
		cfg.ReadyChecks = []server.ReadyCheck{{
			Name: "replicaLag",
			Check: func() error {
				for i, rep := range reps {
					if err := rep.Ready(*maxReplicaLag); err != nil {
						return fmt.Errorf("shard %d: %w", i, err)
					}
				}
				return nil
			},
		}}
		runReplica = func(ctx context.Context) {
			var wg sync.WaitGroup
			for i, rep := range reps {
				wg.Add(1)
				go func(i int, rep *replica.Replica) {
					defer wg.Done()
					rep.Run(ctx)
					boots, batches, retries := rep.Stats()
					log.Printf("replica shard %d stopped at seq %d (%d bootstraps, %d batches, %d retries)",
						i, rep.Engine().AppliedSeq(), boots, batches, retries)
				}(i, rep)
			}
			wg.Wait()
		}
		log.Printf("replicating %d stream(s) from %s (ready under %d batches of lag)",
			n, *replicaOf, *maxReplicaLag)
	} else if *shards > 1 {
		router, err := bootstrapSharded(*snapshot, *demo, *shards)
		if err != nil {
			log.Fatal(err)
		}
		applyResilience(router, *shardMargin, *shardQuorum, *breakerThreshold, *breakerBackoff)
		if *journal != "" {
			if n, err := router.ReplayJournals(*journal); err != nil {
				log.Fatalf("replay journals: %v", err)
			} else if n > 0 {
				log.Printf("replayed %d journaled update batches across %d shards", n, router.NumShards())
			}
			if err := router.AttachJournals(*journal); err != nil {
				log.Fatal(err)
			}
			cfg.ReadyChecks = append(cfg.ReadyChecks, server.JournalCheck(router))
		}
		eng = router
		log.Printf("serving %d shards behind the scatter-gather router", router.NumShards())
	} else {
		e, err := bootstrap(*snapshot, *demo)
		if err != nil {
			log.Fatal(err)
		}
		if *journal != "" {
			if n, err := e.ReplayJournal(*journal); err != nil {
				log.Fatalf("replay journal: %v", err)
			} else if n > 0 {
				log.Printf("replayed %d journaled update batches", n)
			}
			if err := e.AttachJournal(*journal); err != nil {
				log.Fatal(err)
			}
			cfg.ReadyChecks = append(cfg.ReadyChecks, server.JournalCheck(e))
		}
		eng = e
	}
	log.Printf("engine ready: %d videos, %d sub-communities, view v%d, seq %d",
		eng.Len(), eng.SubCommunities(), eng.Version(), eng.AppliedSeq())

	srv := &http.Server{
		Addr:         *addr,
		Handler:      server.NewWithConfig(eng, cfg).Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	go func() {
		log.Printf("listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	repCtx, stopReplica := context.WithCancel(context.Background())
	defer stopReplica()
	if runReplica != nil {
		go runReplica(repCtx)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	stopReplica()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drain in order: stop accepting and wait out in-flight requests (which
	// empties the admission limiter), write a final cursor-stamped snapshot,
	// then flush and close the journal — no torn tail, nothing lost.
	if err := server.Drain(ctx, srv, eng, *snapshot); err != nil {
		log.Printf("drain: %v", err)
	} else if *snapshot != "" {
		log.Printf("snapshot saved to %s", *snapshot)
	}
}

// applyResilience maps the fan-out fault-tolerance flags onto the router.
// Called after bootstrap (snapshot restore included) so the flags win over
// whatever the manifest deployment used before.
func applyResilience(router *shard.Router, margin time.Duration, quorum, threshold int, backoff time.Duration) {
	router.SetResilience(shard.Resilience{
		ShardMargin:      margin,
		MinShardQuorum:   quorum,
		BreakerThreshold: threshold,
		BreakerBackoff:   backoff,
	})
	if quorum > 0 {
		log.Printf("partial answers enabled: quorum %d of %d shards", quorum, router.NumShards())
	}
}

// shardedPath maps a base persistence path to shard i's file: the base path
// itself for an unsharded deployment, <base>.shard<i> otherwise — the same
// layout the sharded primary uses, so a promoted replica's files line up.
func shardedPath(base string, i, n int) string {
	if base == "" || n == 1 {
		return base
	}
	return shard.ShardPath(base, i)
}

// ingester is the ingest surface shared by the single engine and the router,
// letting one demo loader populate either.
type ingester interface {
	Add(videorec.Clip) error
	Build()
}

func bootstrap(snapshot string, demoHours float64) (*videorec.Engine, error) {
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			log.Printf("restoring snapshot %s", snapshot)
			return videorec.LoadFile(snapshot)
		}
	}
	eng := videorec.New(videorec.Options{})
	if err := loadDemo(eng, demoHours); err != nil {
		return nil, err
	}
	return eng, nil
}

func bootstrapSharded(snapshot string, demoHours float64, n int) (*shard.Router, error) {
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			log.Printf("restoring sharded snapshot %s", snapshot)
			router, err := shard.LoadFile(snapshot)
			if err != nil {
				return nil, err
			}
			if router.NumShards() != n {
				// The manifest is authoritative: shard count is fixed at save
				// time and drains change it, so the flag only sizes a fresh
				// deployment.
				log.Printf("snapshot has %d shards; ignoring -shards=%d", router.NumShards(), n)
			}
			return router, nil
		}
	}
	router, err := shard.New(n, videorec.Options{})
	if err != nil {
		return nil, err
	}
	if err := loadDemo(router, demoHours); err != nil {
		return nil, err
	}
	return router, nil
}

func loadDemo(ing ingester, demoHours float64) error {
	if demoHours <= 0 {
		return nil
	}
	log.Printf("generating %.0fh demo community", demoHours)
	o := dataset.DefaultOptions()
	o.Hours = demoHours
	o.Users = 250
	col := dataset.Generate(o)
	for _, it := range col.Items {
		v := it.Render(o.Synth)
		var commenters []string
		for _, cm := range it.Comments {
			if cm.Month < o.MonthsSource {
				commenters = append(commenters, cm.User)
			}
		}
		clip := videorec.Clip{ID: it.ID, FPS: v.FPS, Owner: it.Owner, Commenters: commenters}
		for _, f := range v.Frames {
			clip.Frames = append(clip.Frames, videorec.Frame{W: f.W, H: f.H, Pix: f.Pix})
		}
		if err := ing.Add(clip); err != nil {
			return fmt.Errorf("demo ingest %s: %w", it.ID, err)
		}
	}
	ing.Build()
	return nil
}
