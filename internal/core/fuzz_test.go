package core

import "testing"

// FuzzParseProfile drives arbitrary bytes through load-profile intake —
// ParseProfile, Normalize, Validate and, for an accepted profile, the
// rate schedule. Bad input must come back as an error, never as a panic.
// Explore with `go test -run '^$' -fuzz '^FuzzParseProfile$' ./internal/core`.
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{
		validProfileJSON,
		`{"name": "t", "templates": [{"name": "a", "spec": {"figure": "fig1a"}}], "phases": [{"name": "p", "duration_sec": 5, "rps": 2}]}`,
		`{"name": "t", "compression": 5, "bucket_sec": 5, "seed": 7, "grace_sec": 30,
		  "templates": [{"name": "a", "weight": 3, "spec": {"figure": "fig1a", "iters": 1, "scalediv": 0.01}}],
		  "phases": [{"name": "s", "duration_sec": 60, "pattern": "sine", "rps": 1, "peak_rps": 4, "period_sec": 20},
		             {"name": "b", "duration_sec": 30, "pattern": "burst", "rps": 1, "burst_rps": 9, "burst_every_sec": 10, "burst_len_sec": 2}],
		  "slo": {"max_p50_ms": 100, "max_503_rate": 0, "max_error_rate": 0.5, "min_cache_hit_rate": 0.2, "min_completed": 3}}`,
		`{"name": "t", "templates": [], "phases": []}`,
		`{"name": "t", "phases": [{"name": "p", "duration_sec": -1, "rps": 1e308}]}`,
		`{"name": "t", "events": [{"at_sec": -5, "action": "explode"}]}`,
		`{"name": "t", "rsp": 1}`,
		`{}`,
		`"profile"`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(data)
		if err != nil {
			return
		}
		p = p.Normalize()
		if p.Validate() != nil {
			return
		}
		for _, ph := range p.Phases {
			ph.Rate(0)
			ph.Rate(ph.DurationSec / 2)
		}
		p.TotalDurationSec()
	})
}
