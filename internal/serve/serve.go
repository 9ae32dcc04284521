// Package serve is the mlbench experiment service: a long-running
// HTTP/JSON front end over the benchmark (see cmd/mlbenchd and `mlbench
// serve`). The paper's contribution is a comparison harness whose value
// is asking "run this cell on this platform at this scale" cheaply and
// repeatedly — which a one-shot batch CLI cannot do: every consumer pays
// full recomputation. This package makes runs cheap to repeat:
//
//   - Requests are core.RunSpec JSON bodies, validated up front with
//     actionable errors; accepted runs execute on a bounded worker pool
//     fed by a FIFO queue, with backpressure (429 + Retry-After) when the
//     queue is full and 503 while draining.
//
//   - Identical requests coalesce: a spec's canonical CacheKey addresses
//     at most one computation at a time (single-flight), and completed
//     results are cached by the same key, so a repeated request returns
//     in microseconds. Coalescing and caching are sound because a run's
//     rendered table is a pure function of its CacheKey fields — byte-
//     identical at any worker count, fresh or replayed.
//
//   - Clients can stream per-iteration progress and the final
//     virtual-clock table over SSE, download the run's Chrome trace-event
//     JSON or CSV (reusing internal/trace's exporters), cancel an
//     in-flight run (context cancellation stops the simulation mid-phase
//     and frees the worker slot), and watch the queue through the metrics
//     endpoint.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mlbench/internal/core"
	"mlbench/internal/trace"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// RunOutput is what a completed run serves: the rendered virtual-clock
// table (the exact bytes `mlbench run` would print), the paper-agreement
// counts, and the captured trace for the download endpoints.
type RunOutput struct {
	Table    string
	Markdown string
	Matched  int
	Total    int
	Recorder *trace.Recorder
}

// Runner executes one validated, normalized spec. Injectable so handler
// tests can run without simulating anything.
type Runner func(ctx context.Context, spec core.RunSpec, progress func(core.ProgressEvent)) (*RunOutput, error)

// DefaultRunner executes the spec through core.Execute with a fresh
// trace recorder and the service's progress sink attached. File exports
// named by the spec are skipped — the service exposes download endpoints
// instead of writing to its own filesystem.
func DefaultRunner(ctx context.Context, spec core.RunSpec, progress func(core.ProgressEvent)) (*RunOutput, error) {
	rec := trace.NewRecorder()
	res, err := core.Execute(ctx, spec, core.ExecOptions{Recorder: rec, Progress: progress, SkipExports: true})
	if err != nil {
		return nil, err
	}
	m, n := res.Table.Agreement(3)
	return &RunOutput{
		Table:    res.Table.Render(),
		Markdown: res.Table.RenderMarkdown(),
		Matched:  m,
		Total:    n,
		Recorder: rec,
	}, nil
}

// Config tunes a Server.
type Config struct {
	// Workers is the bounded pool of concurrent experiment runs
	// (default 2). Each run may itself use up to its spec's Workers host
	// goroutines.
	Workers int
	// QueueDepth bounds the FIFO of accepted-but-not-started jobs;
	// submissions beyond it are rejected with 429 (default 16).
	QueueDepth int
	// CacheSize bounds how many completed jobs are retained for cache
	// hits and artifact downloads; the oldest are evicted (default 64).
	CacheSize int
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (default 2s).
	RetryAfter time.Duration
	// ProgressInterval throttles per-run SSE progress events (default
	// 100ms; progress is a stream hint, not a record).
	ProgressInterval time.Duration
	// Autoscale, when non-nil, replaces the fixed Workers pool with an
	// elastic one: the pool starts at Autoscale.Min and a controller
	// grows it toward Autoscale.Max on queue pressure and shrinks it back
	// when idle (see AutoscaleConfig). Workers is ignored.
	Autoscale *AutoscaleConfig
	// Runner executes specs (default DefaultRunner).
	Runner Runner
	// Log, when non-nil, receives one line per lifecycle transition.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
		if n := runtime.GOMAXPROCS(0); n < 2 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 100 * time.Millisecond
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner
	}
	return c
}

// Event is one SSE frame of a job's lifecycle.
type Event struct {
	// Type is the SSE event name: queued, started, progress, done,
	// failed, canceled.
	Type string
	// Data is the JSON-marshaled payload.
	Data any
}

// Job is one submitted run and its lifecycle. All mutable fields are
// guarded by the owning Server's mutex.
type Job struct {
	ID   string
	Key  string
	Spec core.RunSpec

	state    string
	output   *RunOutput
	errMsg   string
	hits     int // coalesced + cached requests served by this job
	created  time.Time
	finished time.Time

	cancel   context.CancelFunc
	canceled bool // cancellation requested (queued jobs skip execution)
	done     chan struct{}

	history []Event
	subs    map[chan Event]struct{}
}

// Metrics is the service counter snapshot (GET /v1/metrics). The JSON
// names are a stable scrape contract: the load driver (internal/loadgen)
// and the autoscaler read queue_depth, workers, workers_busy, cache_hits,
// and cache_misses by these exact names, and TestMetricsSchemaStable pins
// the full set — extend it, never rename.
type Metrics struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Coalesced   int64 `json:"coalesced"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Rejected    int64 `json:"rejected"`
	Running     int   `json:"running"`
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	Workers     int   `json:"workers"`
	WorkersBusy int   `json:"workers_busy"`
	WorkersMin  int   `json:"workers_min"`
	WorkersMax  int   `json:"workers_max"`
	ScaleUps    int64 `json:"scale_ups"`
	ScaleDowns  int64 `json:"scale_downs"`
	Jobs        int   `json:"jobs"`
	Draining    bool  `json:"draining"`
}

// Server is the experiment service core: the job table, the single-flight
// index, the FIFO queue, and the worker pool. Wrap it in Handler() for
// HTTP.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // job ids, submission order
	byKey    map[string]*Job // single-flight + cache index
	lru      []string        // done job ids, completion order (eviction)
	queue    chan *Job
	draining bool
	nextID   int
	running  int
	metrics  Metrics

	// Elastic pool state (Config.Autoscale): pool counts started workers,
	// retiring counts outstanding retire tokens not yet consumed, scaler
	// is the policy, scaleEvents the applied-decision log.
	pool        int
	retiring    int
	retire      chan struct{}
	scaler      *Autoscaler
	scaleEvents []ScaleEvent
	ctlStop     chan struct{}

	wg sync.WaitGroup
}

// New starts a Server and its worker pool (fixed at cfg.Workers, or
// elastic between cfg.Autoscale.Min and .Max when autoscaling is on).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		jobs:  map[string]*Job{},
		byKey: map[string]*Job{},
		queue: make(chan *Job, cfg.QueueDepth),
	}
	start := cfg.Workers
	if cfg.Autoscale != nil {
		s.scaler = NewAutoscaler(*cfg.Autoscale)
		start = s.scaler.Config().Min
		s.retire = make(chan struct{}, s.scaler.Config().Max)
		s.ctlStop = make(chan struct{})
		go s.controller()
	}
	s.mu.Lock()
	s.spawnLocked(start)
	s.mu.Unlock()
	return s
}

// spawnLocked starts n workers. Caller holds s.mu.
func (s *Server) spawnLocked(n int) {
	for i := 0; i < n; i++ {
		s.pool++
		s.wg.Add(1)
		go s.worker()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// SubmitDisposition says how a submission was satisfied.
type SubmitDisposition struct {
	// Coalesced is true when the spec matched a queued or running job.
	Coalesced bool
	// Cached is true when the spec matched a completed job's result.
	Cached bool
}

// ErrQueueFull rejects a submission when the FIFO is at capacity; the
// HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = fmt.Errorf("serve: queue full")

// ErrDraining rejects submissions during graceful shutdown (503).
var ErrDraining = fmt.Errorf("serve: draining")

// Submit validates and enqueues a spec, or coalesces it onto an existing
// job with the same cache key. The returned job is queued, running, or
// already done (cache hit).
func (s *Server) Submit(spec core.RunSpec) (*Job, SubmitDisposition, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, SubmitDisposition{}, err
	}
	key := spec.CacheKey()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, SubmitDisposition{}, ErrDraining
	}
	if j := s.byKey[key]; j != nil {
		j.hits++
		disp := SubmitDisposition{Coalesced: !terminal(j.state), Cached: j.state == StateDone}
		if disp.Cached {
			s.metrics.CacheHits++
		} else {
			s.metrics.Coalesced++
		}
		return j, disp, nil
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.metrics.Rejected++
		return nil, SubmitDisposition{}, ErrQueueFull
	}
	s.nextID++
	j := &Job{
		ID:      fmt.Sprintf("r%d", s.nextID),
		Key:     key,
		Spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		subs:    map[chan Event]struct{}{},
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.byKey[key] = j
	s.metrics.Submitted++
	s.metrics.CacheMisses++ // fresh computation: neither coalesced nor cached
	s.emitLocked(j, Event{Type: StateQueued, Data: map[string]any{"id": j.ID, "key": j.Key}})
	s.queue <- j // cannot block: len(queue) checked under mu
	s.logf("serve: %s queued %s (%s)", j.ID, j.Spec.Figure, j.Key[:12])
	return j, SubmitDisposition{}, nil
}

// Job returns the job by id, or nil.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel cancels a queued or running job. It reports the job's state
// after the call; ok is false when the id is unknown.
func (s *Server) Cancel(id string) (state string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return "", false
	}
	switch j.state {
	case StateQueued:
		j.canceled = true
		s.finishLocked(j, StateCanceled, nil, "canceled while queued")
	case StateRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel() // the runner observes ctx and returns; runJob finishes the job
		}
	}
	return j.state, true
}

// worker consumes the FIFO until the queue closes on drain or a retire
// token arrives from a scale-down. Retire tokens are only consumed
// between jobs, never mid-run: an in-flight run always survives a
// scale-down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j, ok := <-s.queue:
			if !ok {
				s.mu.Lock()
				s.pool--
				s.mu.Unlock()
				return
			}
			s.runJob(j)
		case <-s.retire: // nil channel when autoscaling is off: never ready
			s.mu.Lock()
			s.pool--
			s.retiring--
			s.mu.Unlock()
			return
		}
	}
}

// controller re-evaluates the elastic pool every Autoscale.Interval until
// drain.
func (s *Server) controller() {
	t := time.NewTicker(s.scaler.Config().Interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctlStop:
			return
		case now := <-t.C:
			s.evaluateScale(now)
		}
	}
}

// evaluateScale feeds one load sample to the policy and applies its
// decision. Exposed on the Server (rather than inlined in controller) so
// tests can step the pool without waiting out real intervals.
func (s *Server) evaluateScale(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.scaler == nil {
		return
	}
	sample := LoadSample{Queue: len(s.queue), Busy: s.running, Workers: s.pool - s.retiring}
	target, reason := s.scaler.Decide(now, sample)
	if target == sample.Workers {
		return
	}
	s.applyScaleLocked(sample.Workers, target, now, reason)
}

// applyScaleLocked resizes the effective pool from 'from' to 'target':
// scale-ups first cancel pending retirements, then spawn; scale-downs
// enqueue retire tokens that idle workers consume. Caller holds s.mu.
func (s *Server) applyScaleLocked(from, target int, now time.Time, reason string) {
	delta := target - from
cancel:
	for delta > 0 && s.retiring > 0 {
		select {
		case <-s.retire:
			s.retiring--
			delta--
		default:
			// A token already raced to a worker (it will exit and account
			// for itself); spawn the remainder instead.
			break cancel
		}
	}
	if delta > 0 {
		s.spawnLocked(delta)
	}
	for i := 0; i < -delta; i++ {
		select {
		case s.retire <- struct{}{}:
			s.retiring++
		default: // channel full (cap Max): every worker already has a token
		}
	}
	if target > from {
		s.metrics.ScaleUps++
	} else {
		s.metrics.ScaleDowns++
	}
	s.scaleEvents = append(s.scaleEvents, ScaleEvent{At: now, From: from, To: target, Reason: reason})
	s.logf("serve: scale %d -> %d workers (%s)", from, target, reason)
}

// ScaleEvents returns a copy of the applied scaling decisions, oldest
// first.
func (s *Server) ScaleEvents() []ScaleEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ScaleEvent(nil), s.scaleEvents...)
}

// runJob executes one dequeued job unless it was cancelled while queued.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	s.running++
	s.metrics.Running = s.running
	s.emitLocked(j, Event{Type: "started", Data: map[string]any{"id": j.ID}})
	s.mu.Unlock()
	s.logf("serve: %s running", j.ID)

	progress := s.progressSink(j)
	out, err := s.callRunner(ctx, j, progress)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.metrics.Running = s.running
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, out, "")
	case j.canceled || ctx.Err() != nil:
		s.finishLocked(j, StateCanceled, nil, err.Error())
	default:
		s.finishLocked(j, StateFailed, nil, err.Error())
	}
}

// callRunner runs the job's spec, turning a Runner panic into the job's
// error: one bad run fails its job, and the worker and the daemon keep
// serving.
func (s *Server) callRunner(ctx context.Context, j *Job, progress func(core.ProgressEvent)) (out *RunOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("serve: %s panicked: %v\n%s", j.ID, r, debug.Stack())
			out, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return s.cfg.Runner(ctx, j.Spec, progress)
}

// progressSink wraps the job's SSE fan-out with wall-clock throttling:
// phase barriers arrive far faster than clients care, and progress is a
// hint, not a record — the terminal event carries the full result.
func (s *Server) progressSink(j *Job) func(core.ProgressEvent) {
	var last time.Time
	return func(e core.ProgressEvent) {
		now := time.Now()
		if now.Sub(last) < s.cfg.ProgressInterval {
			return
		}
		last = now
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.state != StateRunning {
			return
		}
		s.emitLocked(j, Event{Type: "progress", Data: e})
	}
}

// finishLocked moves a job to a terminal state, updates the single-flight
// index (results stay cached, errors never do), notifies subscribers, and
// evicts the oldest cached results beyond CacheSize. Caller holds s.mu.
func (s *Server) finishLocked(j *Job, state string, out *RunOutput, errMsg string) {
	if terminal(j.state) {
		return
	}
	j.state = state
	j.output = out
	j.errMsg = errMsg
	j.finished = time.Now()
	switch state {
	case StateDone:
		s.metrics.Completed++
		s.lru = append(s.lru, j.ID)
		data := map[string]any{"id": j.ID, "matched": out.Matched, "total": out.Total, "table": out.Table}
		s.emitLocked(j, Event{Type: StateDone, Data: data})
	case StateFailed:
		s.metrics.Failed++
		delete(s.byKey, j.Key)
		s.emitLocked(j, Event{Type: StateFailed, Data: map[string]any{"id": j.ID, "error": errMsg}})
	case StateCanceled:
		s.metrics.Canceled++
		delete(s.byKey, j.Key)
		s.emitLocked(j, Event{Type: StateCanceled, Data: map[string]any{"id": j.ID}})
	}
	close(j.done)
	for ch := range j.subs {
		close(ch)
	}
	j.subs = map[chan Event]struct{}{}
	s.logf("serve: %s %s", j.ID, state)
	s.evictLocked()
}

// evictLocked drops the oldest completed jobs beyond CacheSize — their
// cached tables, traces, and status records go together.
func (s *Server) evictLocked() {
	for len(s.lru) > s.cfg.CacheSize {
		id := s.lru[0]
		s.lru = s.lru[1:]
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if s.byKey[j.Key] == j {
			delete(s.byKey, j.Key)
		}
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.logf("serve: %s evicted", id)
	}
}

// emitLocked appends an event to the job's history and fans it out to
// subscribers. Sends never block: a slow client loses intermediate
// progress frames, not correctness — terminal results are read from the
// job record after the channel closes. Caller holds s.mu.
func (s *Server) emitLocked(j *Job, ev Event) {
	j.history = append(j.history, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a live event channel and returns the history so
// far. The channel is closed when the job reaches a terminal state.
func (s *Server) subscribe(j *Job) (history []Event, ch chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history = append([]Event(nil), j.history...)
	if terminal(j.state) {
		return history, nil
	}
	ch = make(chan Event, 64)
	j.subs[ch] = struct{}{}
	return history, ch
}

// unsubscribe removes a live channel (no-op after terminal close).
func (s *Server) unsubscribe(j *Job, ch chan Event) {
	if ch == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(j.subs, ch)
}

// Metrics returns a counter snapshot.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.Running = s.running
	m.QueueDepth = len(s.queue)
	m.QueueCap = s.cfg.QueueDepth
	m.Workers = s.pool - s.retiring
	m.WorkersBusy = s.running
	if s.scaler != nil {
		m.WorkersMin = s.scaler.Config().Min
		m.WorkersMax = s.scaler.Config().Max
	} else {
		m.WorkersMin = s.cfg.Workers
		m.WorkersMax = s.cfg.Workers
	}
	m.Jobs = len(s.jobs)
	m.Draining = s.draining
	return m
}

// FlushCache drops every cached result (the jobs in done state, with
// their traces and status records) so subsequent identical specs
// recompute. Queued and running jobs are untouched. It returns the number
// of results flushed. Wired to POST /v1/cache/flush; the load driver's
// cache-flush scheduled event uses it to model cold-cache storms.
func (s *Server) FlushCache() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.lru)
	for _, id := range s.lru {
		j := s.jobs[id]
		if j == nil {
			n--
			continue
		}
		if s.byKey[j.Key] == j {
			delete(s.byKey, j.Key)
		}
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.lru = nil
	if n > 0 {
		s.logf("serve: cache flushed (%d results)", n)
	}
	return n
}

// Drain gracefully shuts the pool down: new submissions are rejected
// with ErrDraining, queued and in-flight jobs run to completion, and
// Drain returns when the pool is idle or ctx expires (the remaining jobs
// are then cancelled so workers exit).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		if s.ctlStop != nil {
			close(s.ctlStop)
		}
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.canceled = true
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-idle
		return fmt.Errorf("serve: drain timed out; in-flight jobs were cancelled: %w", ctx.Err())
	}
}
