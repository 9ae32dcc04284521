package perfgate

import (
	"time"

	"mlbench/internal/core"
	"mlbench/internal/loadgen"
	"mlbench/internal/serve"
)

// servingProfile is the fixed in-memory traffic profile behind the
// serving replay: a short ramp into a bursty plateau with a
// hot (cacheable) and a cold (unique-seed) template, sized so the bursts
// overflow the fake server's queue and the autoscaler has to act. It
// lives in code rather than under profiles/ so the pinned replay cannot
// drift apart from a checked-in file it does not own.
func servingProfile() core.Profile {
	return core.Profile{
		Name:        "gate-replay",
		Compression: 100,
		BucketSec:   5,
		Seed:        1,
		GraceSec:    10,
		Templates: []core.Template{
			{Name: "hot", Weight: 2, Spec: core.RunSpec{Figure: "fig1a", Iterations: 1}},
			{Name: "cold", Weight: 1, UniqueSeed: true, Spec: core.RunSpec{Figure: "fig1b", Iterations: 1}},
		},
		Phases: []core.Phase{
			{Name: "ramp", DurationSec: 10, Pattern: core.PatternRamp, RPS: 1, ToRPS: 4},
			{Name: "burst", DurationSec: 10, Pattern: core.PatternBurst, RPS: 1,
				BurstRPS: 12, BurstEverySec: 5, BurstLenSec: 2},
		},
	}.Normalize()
}

// servingReplay runs the replay profile once on a fresh fake clock and
// fake autoscaling server. Everything is deterministic: the same binary
// always produces the identical Summary.
func servingReplay() (*loadgen.Result, error) {
	clock := loadgen.NewFakeClock(time.Unix(1_700_000_000, 0))
	fs := loadgen.NewFakeServer(clock, loadgen.FakeServerConfig{
		QueueDepth:    2,
		RetryAfterSec: 1,
		ServiceTime:   10 * time.Millisecond, // 1 profile second at 100x
		Autoscale: &serve.AutoscaleConfig{
			Min: 1, Max: 4,
			Interval: 50 * time.Millisecond,
			Cooldown: 100 * time.Millisecond,
		},
	})
	return loadgen.Run(servingProfile(), loadgen.Options{
		BaseURL: "http://gate",
		Client:  loadgen.HandlerClient(fs.Handler()),
		Clock:   clock,
	})
}

// servingReplaySpec: one op = one full replay of the profile (schedule
// expansion, the discrete-event driver loop, every HTTP round trip
// through the in-process transport, timeline aggregation). This is the
// wall-time cost of the serving test battery itself, so a driver
// slowdown shows up like any other hot path.
func servingReplaySpec() Spec {
	return Spec{
		Name:   "micro:loadgen-replay",
		N:      10,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				res, err := servingReplay()
				if err != nil {
					return err
				}
				Sink += res.Summary.P99Ms
			}
			return nil
		},
	}
}

// ServingSpecs returns the timed serving-section benchmarks.
func ServingSpecs() []Spec {
	return []Spec{servingReplaySpec()}
}
