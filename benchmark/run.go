package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"
)

// Set-up is repeated in one run and setup_s is the median, so one slow
// exec does not decide it. A batch set-up is a few milliseconds, so it
// can afford more repeats than a daemon boot.
const (
	setupReps      = 9
	batchSetupReps = 41
)

// lateLimitMs is how late the open loop's 99th-percentile send may be:
// beyond it the generator, not the service, shaped the latencies, and the
// phase is invalid rather than slow. An invalid phase is measured once
// more (one stall of a shared host is enough to cause one); a second
// one is a failed operation.
const (
	lateLimitMs  = 10
	openAttempts = 2
)

// runUntraced measures one workload end to end, tracing off, against the
// built programs as child processes.
func runUntraced(ctx context.Context, e *env, w *Workload, seed uint64, seconds float64) *Run {
	run := newRun(seed, false)
	if w.Kind == "batch" {
		runBatch(ctx, e, w, run, seconds)
	} else {
		runServe(ctx, e, w, run, seconds)
	}
	run.finish()
	return run
}

// runBatch times reps of the workload's spec list, one `mlbench run
// -spec -` child per spec, for as many whole reps as fit in --seconds. There is no
// warm-up rep: a CLI user pays process start every time.
func runBatch(ctx context.Context, e *env, w *Workload, run *Run, seconds float64) {
	log := w.Name + ".mlbench.stderr.log"

	// Set-up: make the specs the children will read, and start the
	// program once the way a first invocation does (exec, runtime init,
	// figure registry) without running anything.
	var specs [][]byte
	var setups []float64
	for i := 0; i < batchSetupReps; i++ {
		start := time.Now()
		specs = specs[:0]
		for _, c := range w.Cells {
			_, data := c.withSeed(run.Seed)
			specs = append(specs, data)
		}
		list := e.runMlbench(ctx, log, nil, "list")
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			run.op(list.err)
		}
	}
	run.set("setup_s", median(setups))

	var walls, cpus []float64
	perSpec := make([][]float64, len(specs)) // child wall times in ms
	var rss float64
	children, completed := 0, 0
	first := make([][]byte, len(specs)) // rep 0's stdout per spec
	cheapest, cheapestWall := 0, 0.0
	start := time.Now()
	for rep := 0; ; rep++ {
		var wall, cpu float64
		for i, spec := range specs {
			r := e.runSpec(ctx, log, spec)
			wall += r.wallSec
			cpu += r.cpuSec
			perSpec[i] = append(perSpec[i], r.wallSec*1e3)
			if r.rssMB > rss {
				rss = r.rssMB
			}
			err := r.err
			if err == nil {
				err = checkOutcome(w.Cells[i], r.stdout)
			}
			switch {
			case err != nil:
			case rep == 0:
				if first[cheapest] == nil || r.wallSec < cheapestWall {
					cheapest, cheapestWall = i, r.wallSec
				}
				first[i] = r.stdout
			case !bytes.Equal(r.stdout, first[i]):
				err = fmt.Errorf("%s: rep %d printed different bytes than rep 0", w.Cells[i].label(), rep)
			}
			run.op(err)
			children++
			if err == nil {
				completed++
			}
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		// Stop when another rep of the usual length would overrun. On a
		// host having a bad minute that can be after one rep: the run's
		// length stays bounded, and the rep-to-rep check is skipped.
		used := time.Since(start).Seconds()
		if used+used/float64(rep+1) > seconds {
			break
		}
		if ctx.Err() != nil {
			break
		}
	}

	// Simulated results may not depend on host parallelism: the cheapest
	// spec again at one worker must print the same bytes.
	if first[cheapest] != nil {
		s := w.Cells[cheapest].spec
		s.Workers = 1
		_, one := Cell{spec: s}.withSeed(run.Seed)
		r := e.runSpec(ctx, log, one)
		err := r.err
		if err == nil && !bytes.Equal(r.stdout, first[cheapest]) {
			err = fmt.Errorf("%s: -workers 1 printed different bytes", w.Cells[cheapest].label())
		}
		run.op(err)
	}

	run.set("wall_s", median(walls))
	run.set("cpu_s", median(cpus))
	run.set("throughput_rps", float64(len(specs))/median(walls))
	// A batch user's latency is the wait for one table: each spec's
	// median child time over the reps, then p50 and p90 over the specs
	// (nearest rank, so with five specs p90 is the slowest one's).
	lat := make([]float64, len(specs))
	for i, ms := range perSpec {
		lat[i] = median(ms)
	}
	run.set("latency_p50_ms", percentile(lat, 50))
	run.set("latency_p90_ms", percentile(lat, 90))
	// No latency limit applies to a batch child; its share is of children
	// that exited 0 with the right table.
	run.set("slo_share", float64(completed)/float64(children))
	run.extra("reps", "count", float64(len(walls)))
	run.extra("latency_n", "count", float64(len(lat)))
	run.extra("proc.rss_peak_mb", "MB", rss)
}

// runServe boots one mlbenchd and drives the workload's request stream
// at it: priming (set-up), a closed loop of a fixed request count, then
// an open loop at a fixed rate.
func runServe(ctx context.Context, e *env, w *Workload, run *Run, seconds float64) {
	plan := w.Serve
	workers := runtime.NumCPU()
	log := w.Name + ".mlbenchd.stderr.log"
	nPrime := plan.PrimeRequests
	perRound := scaled(plan.ClosedRequests, seconds)
	nClosed := plan.ClosedRounds * perRound
	nOpen := scaled(int(plan.OpenRPS*plan.OpenSeconds), seconds)
	stream := w.requestStream(run.Seed, nPrime+nClosed+openAttempts*nOpen)

	// Set-up: exec -> /healthz, repeated on throwaway daemons so one slow
	// exec does not decide setup_s; the last daemon is kept and primed.
	var boots []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		var err error
		d, err = e.startDaemon(ctx, log, workers)
		run.op(err)
		if err != nil {
			return
		}
		boots = append(boots, d.bootMs/1e3)
		if i < setupReps-1 {
			_, err := d.stop()
			run.op(err)
		}
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			drain, err := d.stop()
			run.op(err)
			run.extra("serve.drain_s", "s", drain)
		}
	}
	defer stop()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer hc.CloseIdleConnections()
	c := newClient(hc, d.base, w.Cells, nil)
	resubmits := 0
	record := func(outs []outcome) {
		for _, o := range outs {
			run.op(o.err)
			resubmits += o.resubmits
		}
	}

	primeStart := time.Now()
	if nPrime > 0 {
		outs, _ := c.closedLoop(ctx, stream[:nPrime], workers)
		record(outs)
	}
	run.set("setup_s", median(boots)+time.Since(primeStart).Seconds())
	run.extra("serve.boot_ms", "ms", median(boots)*1e3)

	// Closed loop: nproc clients, a fixed request sequence, in rounds.
	var walls, cpus []float64
	m0, err := c.metrics(ctx)
	run.op(err)
	for r := 0; r < plan.ClosedRounds; r++ {
		cpu0, err := d.cpuSec()
		run.op(err)
		outs, elapsed := c.closedLoop(ctx, stream[nPrime+r*perRound:nPrime+(r+1)*perRound], workers)
		cpu1, err := d.cpuSec()
		run.op(err)
		record(outs)
		walls = append(walls, elapsed.Seconds())
		cpus = append(cpus, cpu1-cpu0)
	}
	m1, err := c.metrics(ctx)
	run.op(err)
	run.set("wall_s", median(walls))
	run.set("cpu_s", median(cpus))
	run.set("throughput_rps", float64(perRound)/median(walls))
	closed := countersSince(m0, m1)
	run.extra("closed.submitted", "count", float64(closed.Submitted))
	run.extra("closed.cache_hits", "count", float64(closed.CacheHits))
	run.extra("closed.coalesced", "count", float64(closed.Coalesced))
	run.extra("closed.rejected", "count", float64(closed.Rejected))
	run.extra("closed.hit_share", "share", hitShare(closed))

	// Open loop: fixed rate, each request timed from when it was due.
	var outs []outcome
	var late []float64
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			m1, err = c.metrics(ctx)
			run.op(err)
		}
		from := nPrime + nClosed + attempt*nOpen
		outs = c.openLoop(ctx, stream[from:from+nOpen], dueTimes(plan.OpenRPS, nOpen))
		record(outs)
		late = late[:0]
		for _, o := range outs {
			late = append(late, float64(o.sent.Sub(o.due))/float64(time.Millisecond))
		}
		lateP99 := percentile(late, 99)
		if lateP99 <= lateLimitMs || ctx.Err() != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: open loop ran late (gen.late_p99_ms = %.1f > %d): phase invalid\n", w.Name, run.Seed, lateP99, lateLimitMs)
		if attempt == openAttempts-1 {
			run.op(fmt.Errorf("open loop ran late %d times running (gen.late_p99_ms = %.1f > %d)", openAttempts, lateP99, lateLimitMs))
			break
		}
	}
	m2, err := c.metrics(ctx)
	run.op(err)
	var lat []float64
	within := 0
	for _, o := range outs {
		if o.err != nil {
			continue // a failed request misses the limit and has no latency
		}
		lat = append(lat, o.latencyMs())
		if o.latencyMs() <= plan.LimitMs {
			within++
		}
	}
	run.set("latency_p50_ms", percentile(lat, 50))
	run.set("latency_p90_ms", percentile(lat, 90))
	run.set("slo_share", float64(within)/float64(len(outs)))
	run.extra("latency_n", "count", float64(len(lat)))
	if !supported(len(lat), 90) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: only %d of %d latencies lie beyond p90 (want %d): read it as a rough figure\n", w.Name, beyond(len(lat), 90), len(lat), minBeyond)
	}
	open := countersSince(m1, m2)
	run.extra("open.submitted", "count", float64(open.Submitted))
	run.extra("open.cache_hits", "count", float64(open.CacheHits))
	run.extra("open.hit_share", "share", hitShare(open))
	run.extra("open.rejected", "count", float64(open.Rejected))
	run.extra("gen.late_p99_ms", "ms", percentile(late, 99))
	run.extra("gen.late_max_ms", "ms", maxOf(late))
	run.extra("client.resubmits", "count", float64(resubmits))

	stop()

	// The first distinct keys served must be what the CLI prints for the
	// same spec (the CLI appends its agreement lines after the table).
	for _, st := range c.firstKeys {
		r := e.runSpec(ctx, w.Name+".mlbench.stderr.log", st.req.Spec)
		err := r.err
		if err == nil && !bytes.HasPrefix(r.stdout, st.table) {
			err = fmt.Errorf("%s: served table differs from `mlbench run -spec`", w.Cells[st.req.Cell].label())
		}
		run.op(err)
	}
}
