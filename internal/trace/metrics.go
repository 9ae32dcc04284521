package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Key identifies one metric series: the platform engine, the benchmark
// cell, the phase that charged it, and the metric name.
type Key struct {
	Engine string
	Cell   string
	Phase  string
	Name   string
}

// Sample is one exported counter value.
type Sample struct {
	Key
	Val float64
}

// Metrics is a registry of accumulated counters. Like the Recorder it is
// only ever touched from the host goroutine at phase barriers, so it
// needs no locking and iteration order is made deterministic by sorting
// on export.
type Metrics struct {
	counters map[Key]float64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: map[Key]float64{}}
}

// Add accumulates v into the counter at k.
func (m *Metrics) Add(k Key, v float64) { m.counters[k] += v }

// Total sums every counter with the given metric name across engines,
// cells, and phases.
func (m *Metrics) Total(name string) float64 {
	var s float64
	for k, v := range m.counters {
		if k.Name == name {
			s += v
		}
	}
	return s
}

// Snapshot returns every sample sorted by (cell, engine, phase, name) so
// exports are deterministic.
func (m *Metrics) Snapshot() []Sample {
	out := make([]Sample, 0, len(m.counters))
	for k, v := range m.counters {
		out = append(out, Sample{Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Name < b.Name
	})
	return out
}

// Render prints the registry as an aligned text table, one sample per
// line, for the mlbench -metrics flag.
func (m *Metrics) Render() string {
	samples := m.Snapshot()
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b, "%-7s %-44s %-10s %-28s %s\n",
			"counter", s.Cell, s.Engine, s.Phase+"/"+s.Name, formatFloat(s.Val))
	}
	return b.String()
}

// formatFloat renders a float minimally and deterministically.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
