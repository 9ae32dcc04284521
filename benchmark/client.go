package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlbench/internal/serve"
)

// pollInterval is the pause between completion polls of a submitted run.
const pollInterval = 2 * time.Millisecond

// requestTimeout bounds one request from send to table; a request that
// outlasts it has failed.
const requestTimeout = 20 * time.Second

// client drives one mlbenchd — the child over TCP, or a serve.Server in
// process through loadgen.HandlerClient — and checks what it returns.
type client struct {
	http   *http.Client
	base   string
	cells  []Cell
	tracer *Tracer // nil = tracing off
	// stamps, when set (in-process traced pass), returns what the
	// service's runner recorded of the run with this cache key.
	stamps func(jobKey string) (execTrace, bool)

	mu sync.Mutex
	// tables remembers the first table served per key: repeats must be
	// byte-identical, and the first few are re-checked against the CLI.
	tables map[int][sha256.Size]byte
	// firstKeys are the first distinct keys seen, with their tables, kept
	// for the CLI comparison.
	firstKeys []servedTable
}

type servedTable struct {
	req   Request
	table []byte
}

// keepTables is how many distinct keys' tables are compared with
// `mlbench run -spec` after the timed phases.
const keepTables = 8

func newClient(hc *http.Client, base string, cells []Cell, tracer *Tracer) *client {
	return &client{http: hc, base: base, cells: cells, tracer: tracer, tables: map[int][sha256.Size]byte{}}
}

// outcome is one finished request.
type outcome struct {
	due       time.Time // when the schedule wanted it sent (closed loop: when it was sent)
	sent      time.Time
	done      time.Time // table fetched
	cached    bool
	resubmits int           // submits repeated after an eviction (see do)
	polls     int           // completion polls sent
	waited    time.Duration // time spent polling
	serverMs  float64       // JobStatus finished - created
	jobKey    string        // the service's cache key
	// queueMs and serviceMs split the wait at the runner's stamps (traced
	// pass only).
	queueMs, serviceMs float64
	err                error // refusal, failure, timeout, or a wrong table
}

// latencyMs is the request's latency from when it was due.
func (o outcome) latencyMs() float64 { return float64(o.done.Sub(o.due)) / float64(time.Millisecond) }

type submitReply struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	State     string `json:"state"`
	Coalesced bool   `json:"coalesced"`
	Cached    bool   `json:"cached"`
}

type statusReply struct {
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished"`
}

// errEvicted is a 404 for a run the service accepted earlier: its result
// was evicted from the bounded cache.
var errEvicted = errors.New("404: run evicted from the result cache")

// maxResubmits bounds how often one request is submitted again after
// its run was evicted under it.
const maxResubmits = 2

// get fetches base+path and returns the body of a 200.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("GET %s: %w", path, errEvicted)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, firstLine(body))
	}
	return body, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// do sends one request and follows it to its table, timing it from due,
// the scheduled send time. A run evicted from the service's bounded
// result cache between the submit that hit it and the fetch of its table
// answers 404; the client then submits again, as any client must, and the
// time that takes stays inside the request's latency.
func (c *client) do(ctx context.Context, r Request, due time.Time) outcome {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	root := c.tracer.begin("request", "client", nil)
	defer root.end()
	o := outcome{due: due, sent: time.Now()}
	for {
		o.err = c.attempt(ctx, r, root, &o)
		if !errors.Is(o.err, errEvicted) || o.resubmits == maxResubmits {
			return o
		}
		o.resubmits++
	}
}

// attempt is one submit-wait-fetch pass: POST /v1/runs, poll GET
// /v1/runs/{id} until terminal (skipped on a cache hit), GET the table,
// check it.
func (c *client) attempt(ctx context.Context, r Request, root *open, o *outcome) error {
	post := c.tracer.begin("POST /v1/runs", "serve", root)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(r.Spec))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	post.end()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/runs: %d %s", resp.StatusCode, firstLine(body))
	}
	var sub submitReply
	if err := json.Unmarshal(body, &sub); err != nil {
		return fmt.Errorf("POST /v1/runs: %w", err)
	}
	o.cached, o.jobKey = sub.Cached, sub.Key
	submitted := time.Now()

	state := sub.State
	wait := c.tracer.begin("wait", "client", root)
	for state == "queued" || state == "running" {
		select {
		case <-ctx.Done():
			return fmt.Errorf("run %s: still %s after %s", sub.ID, state, requestTimeout)
		case <-time.After(pollInterval):
		}
		body, err := c.get(ctx, "/v1/runs/"+sub.ID)
		if err != nil {
			return err
		}
		o.polls++
		var st statusReply
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("GET /v1/runs/%s: %w", sub.ID, err)
		}
		state = st.State
		if st.Finished != nil {
			o.serverMs = float64(st.Finished.Sub(st.Created)) / float64(time.Millisecond)
		}
		if state == "failed" || state == "canceled" {
			return fmt.Errorf("run %s %s: %s", sub.ID, state, st.Error)
		}
	}
	wait.end()
	o.waited += time.Since(submitted)
	if c.stamps != nil && !sub.Cached && !sub.Coalesced {
		// This request started the run: split its wait into queue and
		// service at the runner's own stamps. (A coalesced request waits
		// on a run whose spans belong to the request that started it.)
		if et, ok := c.stamps(sub.Key); ok {
			c.tracer.add("queue wait", "serve", wait, submitted, et.start)
			et.addSpans(c.tracer, wait)
			o.queueMs = float64(et.start.Sub(submitted)) / float64(time.Millisecond)
			o.serviceMs = float64(et.end.Sub(et.start)) / float64(time.Millisecond)
		}
	}

	fetch := c.tracer.begin("GET table", "serve", root)
	table, err := c.get(ctx, "/v1/runs/"+sub.ID+"/table")
	fetch.end()
	if err != nil {
		return err
	}
	o.done = time.Now()
	return c.checkTable(r, table)
}

// checkTable holds a served table against what is known without
// re-running it: the recorded Fail/non-Fail outcome of its cell, and the
// bytes served earlier for the same key.
func (c *client) checkTable(r Request, table []byte) error {
	cell := c.cells[r.Cell]
	if err := checkOutcome(cell, table); err != nil {
		return err
	}
	sum := sha256.Sum256(table)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, seen := c.tables[r.Key]; seen {
		if prev != sum {
			return fmt.Errorf("%s: key %d served different bytes than before", cell.label(), r.Key)
		}
		return nil
	}
	c.tables[r.Key] = sum
	if len(c.firstKeys) < keepTables {
		c.firstKeys = append(c.firstKeys, servedTable{req: r, table: table})
	}
	return nil
}

// checkOutcome checks a rendered single-cell table (served, or the start
// of the CLI's stdout): the third line is the cell's row, and its value
// reads "Fail" exactly when the workload file says the cell fails.
func checkOutcome(cell Cell, table []byte) error {
	lines := strings.SplitN(string(table), "\n", 4)
	if len(lines) < 3 || !strings.HasPrefix(lines[2], cell.spec.Row) {
		return fmt.Errorf("%s: output is not that cell's table: %q", cell.label(), firstLine(table))
	}
	value := strings.TrimSpace(strings.TrimPrefix(lines[2], cell.spec.Row))
	if failed := strings.HasPrefix(value, "Fail "); failed != cell.Fail {
		return fmt.Errorf("%s: rendered %q, workload file records fail=%v", cell.label(), value, cell.Fail)
	}
	return nil
}

// closedLoop sends reqs from nClients clients, each sending its next
// request when its previous one has completed.
func (c *client) closedLoop(ctx context.Context, reqs []Request, nClients int) (outs []outcome, elapsed time.Duration) {
	outs = make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				outs[i] = c.do(ctx, reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop sends reqs[i] at start+due[i] seconds whatever the state of
// earlier requests, and waits for all of them.
func (c *client) openLoop(ctx context.Context, reqs []Request, due []float64) []outcome {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		at := start.Add(time.Duration(due[i] * float64(time.Second)))
		select {
		case <-ctx.Done(): // interrupted: the rest of the schedule is not sent
			for j := i; j < len(reqs); j++ {
				outs[j] = outcome{due: at, sent: at, err: ctx.Err()}
			}
			wg.Wait()
			return outs
		case <-time.After(time.Until(at)):
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = c.do(ctx, reqs[i], at)
		}(i)
	}
	wg.Wait()
	return outs
}

// metrics scrapes GET /v1/metrics.
func (c *client) metrics(ctx context.Context) (serve.Metrics, error) {
	var m serve.Metrics
	body, err := c.get(ctx, "/v1/metrics")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

// countersSince is the change of the service's request counters from an
// earlier snapshot a to b.
func countersSince(a, b serve.Metrics) serve.Metrics {
	return serve.Metrics{
		Submitted:   b.Submitted - a.Submitted,
		Coalesced:   b.Coalesced - a.Coalesced,
		CacheHits:   b.CacheHits - a.CacheHits,
		CacheMisses: b.CacheMisses - a.CacheMisses,
		Rejected:    b.Rejected - a.Rejected,
	}
}

// hitShare is cache hits over requests accepted.
func hitShare(m serve.Metrics) float64 {
	n := m.CacheHits + m.Coalesced + m.CacheMisses
	if n == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(n)
}
