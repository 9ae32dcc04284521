package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlbench/internal/core"
)

// stubRunner is an injectable Runner for handler tests: it counts
// invocations, optionally blocks until released, and honors ctx.
type stubRunner struct {
	calls   atomic.Int64
	block   chan struct{} // nil: return immediately; else wait for close/ctx
	started chan string   // receives the figure id when a run begins
	table   string
	err     error
}

func (r *stubRunner) run(ctx context.Context, spec core.RunSpec, progress func(core.ProgressEvent)) (*RunOutput, error) {
	r.calls.Add(1)
	if r.started != nil {
		r.started <- spec.Figure
	}
	if progress != nil {
		progress(core.ProgressEvent{Cell: "stub", Phase: "iter", ClockSec: 1})
	}
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", ctx.Err())
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	table := r.table
	if table == "" {
		table = "table for " + spec.Figure + "\n"
	}
	return &RunOutput{Table: table, Markdown: table, Matched: 1, Total: 1}, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, m
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func waitState(t *testing.T, s *Server, id, want string) {
	t.Helper()
	j := s.Job(id)
	if j == nil {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", id, s.status(j).State)
	}
	if st := s.status(j); st.State != want {
		t.Fatalf("job %s state = %s, want %s", id, st.State, want)
	}
}

func TestSubmitRunFetchTable(t *testing.T) {
	stub := &stubRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	resp, m := postSpec(t, ts, `{"figure":"fig1a"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	id := m["id"].(string)
	if m["cached"].(bool) || m["coalesced"].(bool) {
		t.Fatalf("fresh submit reported cached/coalesced: %v", m)
	}
	waitState(t, s, id, StateDone)

	code, body := getBody(t, ts.URL+"/v1/runs/"+id+"/table")
	if code != http.StatusOK || body != "table for fig1a\n" {
		t.Fatalf("table endpoint = %d %q", code, body)
	}
	code, status := getBody(t, ts.URL+"/v1/runs/"+id)
	if code != http.StatusOK || !strings.Contains(status, `"state": "done"`) {
		t.Fatalf("status endpoint = %d %q", code, status)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("runner calls = %d, want 1", got)
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	stub := &stubRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	resp, m := postSpec(t, ts, `{"figure":"fig99"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if msg := m["error"].(string); !strings.Contains(msg, "fig1a") {
		t.Fatalf("validation error should list valid figures, got %q", msg)
	}
	resp, m = postSpec(t, ts, `{"figure":"fig1a","bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status = %d, want 400: %v", resp.StatusCode, m)
	}
	if got := stub.calls.Load(); got != 0 {
		t.Fatalf("invalid specs reached the runner %d times", got)
	}
}

func TestCoalesceAndCache(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`)
	id := m1["id"].(string)
	<-stub.started // job is running and blocked

	// Identical spec (modulo worker count and export paths) coalesces.
	_, m2 := postSpec(t, ts, `{"figure":"fig1a","workers":7}`)
	if m2["id"].(string) != id || !m2["coalesced"].(bool) || m2["cached"].(bool) {
		t.Fatalf("expected coalesce onto %s, got %v", id, m2)
	}
	// A different spec queues separately.
	_, m3 := postSpec(t, ts, `{"figure":"fig1b"}`)
	if m3["id"].(string) == id {
		t.Fatalf("distinct spec coalesced: %v", m3)
	}

	close(stub.block)
	waitState(t, s, id, StateDone)

	// Now the same spec is a cache hit: 200, no new computation.
	resp, m4 := postSpec(t, ts, `{"figure":"fig1a"}`)
	if resp.StatusCode != http.StatusOK || !m4["cached"].(bool) {
		t.Fatalf("expected cache hit, got %d %v", resp.StatusCode, m4)
	}
	waitState(t, s, m3["id"].(string), StateDone)
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("runner calls = %d, want 2 (fig1a once, fig1b once)", got)
	}
	met := s.Metrics()
	if met.Coalesced != 1 || met.CacheHits != 1 {
		t.Fatalf("metrics coalesced=%d cache_hits=%d, want 1/1", met.Coalesced, met.CacheHits)
	}
}

// TestConcurrentIdenticalRequests is the race-mode single-flight proof:
// many concurrent identical POSTs produce exactly one computation and
// byte-identical table bodies.
func TestConcurrentIdenticalRequests(t *testing.T) {
	stub := &stubRunner{table: "the one table\n"}
	s, ts := newTestServer(t, Config{Workers: 2, Runner: stub.run})

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
				strings.NewReader(`{"figure":"fig6","row":"Spark (Java)","col":"5m"}`))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			ids[i] = m["id"].(string)
		}(i)
	}
	wg.Wait()

	first := ids[0]
	for _, id := range ids {
		if id != first {
			t.Fatalf("requests landed on different jobs: %v", ids)
		}
	}
	waitState(t, s, first, StateDone)
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("runner calls = %d, want 1", got)
	}

	bodies := make([]string, n)
	for i := range bodies {
		code, body := getBody(t, ts.URL+"/v1/runs/"+first+"/table")
		if code != http.StatusOK {
			t.Fatalf("table fetch %d: status %d", i, code)
		}
		bodies[i] = body
	}
	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("table body %d differs from body 0", i)
		}
	}
}

func TestBackpressure(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: stub.run})
	defer close(stub.block)

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`) // occupies the worker
	<-stub.started
	postSpec(t, ts, `{"figure":"fig1b"}`) // fills the queue

	resp, m := postSpec(t, ts, `{"figure":"fig2"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %v", resp.StatusCode, m)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without usable Retry-After (%q)", ra)
	}
	if met := s.Metrics(); met.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", met.Rejected)
	}
	// A duplicate of a queued spec still coalesces even at capacity.
	resp, m = postSpec(t, ts, `{"figure":"fig1b"}`)
	if resp.StatusCode != http.StatusAccepted || !m["coalesced"].(bool) {
		t.Fatalf("duplicate at capacity should coalesce, got %d %v", resp.StatusCode, m)
	}
	_ = m1
}

// TestCancelFreesWorkerSlot is the acceptance check: cancelling an
// in-flight run releases its worker (visible in /v1/metrics) and the
// next queued job runs.
func TestCancelFreesWorkerSlot(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 2)}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})
	defer close(stub.block)

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`)
	id1 := m1["id"].(string)
	<-stub.started
	_, m2 := postSpec(t, ts, `{"figure":"fig1b"}`) // waits behind the blocked run
	id2 := m2["id"].(string)

	if met := s.Metrics(); met.Running != 1 {
		t.Fatalf("running = %d, want 1", met.Running)
	}
	resp, err := http.Post(ts.URL+"/v1/runs/"+id1+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	waitState(t, s, id1, StateCanceled)

	<-stub.started // the queued job got the freed slot
	if met := s.Metrics(); met.Running != 1 || met.Canceled != 1 {
		t.Fatalf("metrics after cancel: running=%d canceled=%d, want 1/1", met.Running, met.Canceled)
	}
	// A canceled job caches nothing: resubmitting computes again.
	_, m3 := postSpec(t, ts, `{"figure":"fig1a"}`)
	if m3["id"].(string) == id1 || m3["cached"].(bool) {
		t.Fatalf("canceled job served from cache: %v", m3)
	}
	// Cancel the queued duplicate landscape to let cleanup drain fast.
	for _, id := range []string{id2, m3["id"].(string)} {
		if r, err := http.Post(ts.URL+"/v1/runs/"+id+"/cancel", "", nil); err == nil {
			r.Body.Close()
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`)
	<-stub.started
	_, m2 := postSpec(t, ts, `{"figure":"fig1b"}`)
	id2 := m2["id"].(string)

	if st, ok := s.Cancel(id2); !ok || st != StateCanceled {
		t.Fatalf("Cancel(queued) = %q, %v", st, ok)
	}
	close(stub.block)
	waitState(t, s, m1["id"].(string), StateDone)
	waitState(t, s, id2, StateCanceled)
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("runner calls = %d, want 1 (canceled queued job must not run)", got)
	}
}

func TestFailedRunNotCached(t *testing.T) {
	stub := &stubRunner{err: fmt.Errorf("boom")}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`)
	waitState(t, s, m1["id"].(string), StateFailed)

	stub.err = nil
	_, m2 := postSpec(t, ts, `{"figure":"fig1a"}`)
	if m2["id"] == m1["id"] || m2["cached"].(bool) {
		t.Fatalf("failure was cached: %v", m2)
	}
	waitState(t, s, m2["id"].(string), StateDone)
}

// A panicking Runner fails its job instead of killing the daemon: the
// job ends failed with the panic value, the worker is freed, the next
// job completes on it, and the counters still balance.
func TestRunnerPanicFailsJob(t *testing.T) {
	stub := &stubRunner{}
	runner := func(ctx context.Context, spec core.RunSpec, progress func(core.ProgressEvent)) (*RunOutput, error) {
		if spec.Figure == "fig1a" {
			panic("runner exploded")
		}
		return stub.run(ctx, spec, progress)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`)
	id1 := m1["id"].(string)
	waitState(t, s, id1, StateFailed)
	if st := s.status(s.Job(id1)); st.Error != "panic: runner exploded" {
		t.Fatalf("error = %q, want %q", st.Error, "panic: runner exploded")
	}

	_, m2 := postSpec(t, ts, `{"figure":"fig1b"}`)
	waitState(t, s, m2["id"].(string), StateDone)

	m := s.Metrics()
	if m.Running != 0 || m.Failed != 1 || m.Completed != 1 {
		t.Fatalf("running/failed/completed = %d/%d/%d, want 0/1/1", m.Running, m.Failed, m.Completed)
	}
	if m.Submitted != m.Completed+m.Failed+m.Canceled {
		t.Fatalf("submitted %d != completed %d + failed %d + canceled %d", m.Submitted, m.Completed, m.Failed, m.Canceled)
	}
}

func TestDrain(t *testing.T) {
	stub := &stubRunner{}
	s := New(Config{Workers: 1, Runner: stub.run})
	j, _, err := s.Submit(core.RunSpec{Figure: "fig1a"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := s.status(j); st.State != StateDone {
		t.Fatalf("queued job after drain = %s, want done (drain completes work)", st.State)
	}
	if _, _, err := s.Submit(core.RunSpec{Figure: "fig1b"}); err != ErrDraining {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	if !s.Metrics().Draining {
		t.Fatalf("metrics should report draining")
	}
}

func TestDrainTimeoutCancelsInflight(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	s := New(Config{Workers: 1, Runner: stub.run})
	j, _, err := s.Submit(core.RunSpec{Figure: "fig1a"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-stub.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatalf("Drain with stuck job should report the timeout")
	}
	if st := s.status(j); st.State != StateCanceled {
		t.Fatalf("stuck job after timed-out drain = %s, want canceled", st.State)
	}
}

func TestEventsSSE(t *testing.T) {
	stub := &stubRunner{table: "sse table\n"}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	_, m := postSpec(t, ts, `{"figure":"fig1a"}`)
	id := m["id"].(string)
	waitState(t, s, id, StateDone)

	// After completion, the stream replays history and ends with done.
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, ev)
		}
		if d, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = d
		}
	}
	if len(events) < 3 || events[0] != "queued" || events[len(events)-1] != "done" {
		t.Fatalf("event sequence = %v, want queued ... done", events)
	}
	var donePayload struct {
		Table string `json:"table"`
	}
	if err := json.Unmarshal([]byte(lastData), &donePayload); err != nil || donePayload.Table != "sse table\n" {
		t.Fatalf("done payload = %q (err %v), want table bytes", lastData, err)
	}
}

func TestEventsSSELive(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})

	_, m := postSpec(t, ts, `{"figure":"fig1a"}`)
	id := m["id"].(string)
	<-stub.started

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stub.block)
	}()
	var events []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, ev)
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("live stream events = %v, want trailing done", events)
	}
	waitState(t, s, id, StateDone)
}

func TestMetricsAndListEndpoints(t *testing.T) {
	stub := &stubRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub.run})
	_, m := postSpec(t, ts, `{"figure":"fig1a"}`)
	waitState(t, s, m["id"].(string), StateDone)

	code, body := getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK || !strings.Contains(body, `"submitted": 1`) {
		t.Fatalf("metrics = %d %q", code, body)
	}
	code, body = getBody(t, ts.URL+"/v1/runs")
	if code != http.StatusOK || !strings.Contains(body, m["id"].(string)) {
		t.Fatalf("list = %d %q", code, body)
	}
	code, body = getBody(t, ts.URL+"/v1/figures")
	if code != http.StatusOK || !strings.Contains(body, "fig7c") {
		t.Fatalf("figures = %d %q", code, body)
	}
	code, _ = getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	code, _ = getBody(t, ts.URL+"/v1/runs/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown run = %d, want 404", code)
	}
}

func TestCacheEviction(t *testing.T) {
	stub := &stubRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 1, Runner: stub.run})

	_, m1 := postSpec(t, ts, `{"figure":"fig1a"}`)
	waitState(t, s, m1["id"].(string), StateDone)
	_, m2 := postSpec(t, ts, `{"figure":"fig1b"}`)
	waitState(t, s, m2["id"].(string), StateDone)

	if s.Job(m1["id"].(string)) != nil {
		t.Fatalf("oldest done job should be evicted at CacheSize=1")
	}
	// Evicted spec recomputes.
	_, m3 := postSpec(t, ts, `{"figure":"fig1a"}`)
	if m3["cached"].(bool) {
		t.Fatalf("evicted result still served from cache: %v", m3)
	}
	waitState(t, s, m3["id"].(string), StateDone)
	if got := stub.calls.Load(); got != 3 {
		t.Fatalf("runner calls = %d, want 3", got)
	}
}
