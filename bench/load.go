package main

// load.go is the HTTP side of the benchmark: the keep-alive client, the
// per-response answer checks, and the closed- and open-loop generators.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const topK = 10

// sampleEvery is how often a closed-loop click's full answer is kept for
// comparison against a direct backend call after the phase.
const sampleEvery = 64

// result mirrors one entry of server.RecommendResponse.Results.
type result struct {
	VideoID string
	Score   float64
	Content float64
	Social  float64
}

type recResponse struct {
	Results     []result `json:"results"`
	Degraded    bool     `json:"degraded"`
	ViewVersion uint64   `json:"viewVersion"`
}

// client drives one deployment over nproc keep-alive connections, plus one
// for the commenter stream of a mixed phase.
type client struct {
	http    *http.Client
	baseURL string
	conns   int
}

func newClient(baseURL string) *client {
	n := runtime.NumCPU()
	return &client{
		baseURL: baseURL,
		conns:   n,
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: n + 1, MaxConnsPerHost: n + 1},
			Timeout:   30 * time.Second,
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// recommend issues GET /recommend for a stored clip and applies the checks
// every answer must pass: 200, not degraded, at most k results, scores
// descending, the query itself absent. bodyLen is the response size.
func (c *client) recommend(id string) (resp recResponse, bodyLen int, err error) {
	r, err := c.http.Get(fmt.Sprintf("%s/recommend?id=%s&k=%d", c.baseURL, id, topK))
	if err != nil {
		return resp, 0, err
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return resp, 0, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, len(body), fmt.Errorf("GET /recommend?id=%s: status %d: %s", id, r.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, len(body), fmt.Errorf("GET /recommend?id=%s: %w", id, err)
	}
	return resp, len(body), checkAnswer(id, resp)
}

func checkAnswer(id string, resp recResponse) error {
	if resp.Degraded {
		return fmt.Errorf("answer for %s is degraded", id)
	}
	if len(resp.Results) > topK {
		return fmt.Errorf("answer for %s has %d results, want at most %d", id, len(resp.Results), topK)
	}
	for i, r := range resp.Results {
		if r.VideoID == id {
			return fmt.Errorf("answer for %s contains the query itself", id)
		}
		if i > 0 && r.Score > resp.Results[i-1].Score {
			return fmt.Errorf("answer for %s is not score-descending at rank %d", id, i)
		}
	}
	return nil
}

// update issues POST /updates with one comment batch.
func (c *client) update(batch map[string][]string) error {
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	r, err := c.http.Post(c.baseURL+"/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	out, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /updates: status %d: %s", r.StatusCode, bytes.TrimSpace(out))
	}
	return nil
}

// stats fetches the numeric fields of GET /stats.
func (c *client) stats() (map[string]float64, error) {
	r, err := c.http.Get(c.baseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// openGrace is how long past the end of an open-loop phase its due ops may
// still be sent; a generator further behind than this is not keeping up.
const openGrace = time.Second

// sample is one kept click answer.
type sample struct {
	id   string
	resp recResponse
}

// phase is what a generator measured. Latencies are in arrival order.
type phase struct {
	clickMs   []float64 // per completed click
	updateMs  []float64 // per completed update batch
	lateMs    []float64 // open loop: send time − due time, per op
	elapsed   time.Duration
	attempted int
	failed    int
	backlog   int // open loop: ops due but unsent when the phase ended
	samples   []sample
	firstErr  error
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// closedClicks runs c.conns clients back to back over the click sequence
// (wrapping around) until d has passed. A client sends its next request
// only when the previous one completed, so a slower server receives less
// load.
func (c *client) closedClicks(ids []string, d time.Duration) phase {
	var (
		mu   sync.Mutex
		p    phase
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				id := ids[n%len(ids)]
				t := time.Now()
				resp, _, err := c.recommend(id)
				lat := time.Since(t)
				mu.Lock()
				p.attempted++
				if err != nil {
					p.fail(err)
				} else {
					p.clickMs = append(p.clickMs, ms(lat))
					if n%sampleEvery == 0 {
						p.samples = append(p.samples, sample{id, resp})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedUpdates posts comment batches one after another until d has
// passed: one commenter stream with nothing else running.
func (c *client) closedUpdates(batches []map[string][]string, d time.Duration) phase {
	var p phase
	start := time.Now()
	for n := 0; time.Since(start) < d; n++ {
		t := time.Now()
		err := c.update(batches[n%len(batches)])
		p.attempted++
		if err != nil {
			p.fail(err)
			continue
		}
		p.updateMs = append(p.updateMs, ms(time.Since(t)))
	}
	p.elapsed = time.Since(start)
	return p
}

// openMix sends clicks at a fixed rate for d regardless of completions:
// c.conns clients take the clicks in due order, so when all are busy the
// backlog grows. Latency is taken from the due time, which charges a stall
// to the requests that had to wait behind it. With batches, a commenter
// stream on a connection of its own posts one batch as every
// clicksPerBatch-th click falls due: commenters are other people than the
// visitors clicking, and do not wait for them. Ops still unsent openGrace
// after the phase ended are abandoned and reported as backlog. The click
// and batch sequences are entered at offset clicks, so consecutive phases
// continue one stream.
func (c *client) openMix(ids []string, batches []map[string][]string, offset int, rate float64, d time.Duration) phase {
	type op struct {
		due time.Duration
		n   int // index into ids or batches
	}
	var clicks, updates []op
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due >= d {
			break
		}
		n := offset + i
		clicks = append(clicks, op{due, n % len(ids)})
		if len(batches) > 0 && (n+1)%clicksPerBatch == 0 {
			updates = append(updates, op{due, (n / clicksPerBatch) % len(batches)})
		}
	}
	var (
		mu sync.Mutex
		p  phase
		wg sync.WaitGroup
	)
	start := time.Now()
	// stream sends ops in due order from the given number of clients and
	// files each latency under dst.
	stream := func(ops []op, clients int, send func(n int) error, dst *[]float64) {
		var next atomic.Int64
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) || time.Since(start) >= d+openGrace {
						return
					}
					o := ops[i]
					if wait := o.due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					late := time.Since(start) - o.due
					err := send(o.n)
					lat := time.Since(start) - o.due
					mu.Lock()
					p.attempted++
					p.lateMs = append(p.lateMs, ms(late))
					if err != nil {
						p.fail(err)
					} else {
						*dst = append(*dst, ms(lat))
					}
					mu.Unlock()
				}
			}()
		}
	}
	stream(clicks, c.conns, func(n int) error {
		_, _, err := c.recommend(ids[n])
		return err
	}, &p.clickMs)
	stream(updates, 1, func(n int) error { return c.update(batches[n]) }, &p.updateMs)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.backlog = len(clicks) + len(updates) - p.attempted
	return p
}
