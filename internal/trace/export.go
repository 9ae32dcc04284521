package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mlbench/internal/fsutil"
)

// This file renders a Recorder in three forms: Chrome trace-event JSON
// (the chrome://tracing / Perfetto interchange format), CSV, and the
// per-cell text summary behind the mlbench -trace flag. All three are
// deterministic functions of the recorded data: cells map to pids in
// first-appearance order, spans and events export in recording order, and
// floats render with strconv's minimal form — so byte-identity of two
// exports is exactly byte-identity of two recordings.

// chromeEvent is one entry of the Chrome trace-event array. Field order
// is fixed by the struct; Args marshals with sorted keys (encoding/json
// sorts map keys), keeping the output deterministic.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat,omitempty"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  *float64           `json:"dur,omitempty"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	S    string             `json:"s,omitempty"`
	Args map[string]float64 `json:"args,omitempty"`
}

// chromeMeta is a metadata record (process/thread naming).
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeTid maps a simulated machine index to a Chrome thread id:
// cluster-wide records (machine -1) land on tid 0, machine i on tid i+1.
func chromeTid(machine int) int { return machine + 1 }

// argMap converts an Arg list to the exporter's map form.
func argMap(args []Arg) map[string]float64 {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]float64, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// WriteChrome renders the recorder as Chrome trace-event JSON. Virtual
// seconds become trace microseconds, each benchmark cell becomes one
// process (named via process_name metadata), and each simulated machine
// becomes one thread of that process. Load the file in chrome://tracing
// or https://ui.perfetto.dev to walk the spans.
func WriteChrome(w io.Writer, r *Recorder) error {
	pids := map[string]int{}
	pidOf := func(cell string) int {
		if id, ok := pids[cell]; ok {
			return id
		}
		id := len(pids)
		pids[cell] = id
		return id
	}

	var records []any
	// Metadata first: name each cell's process and its machine threads.
	maxTid := map[string]int{}
	for _, s := range r.spans {
		if t := chromeTid(s.Machine); t > maxTid[s.Cell] {
			maxTid[s.Cell] = t
		}
	}
	for _, e := range r.events {
		if t := chromeTid(e.Machine); t > maxTid[e.Cell] {
			maxTid[e.Cell] = t
		}
	}
	for _, cell := range r.Cells() {
		pid := pidOf(cell)
		records = append(records, chromeMeta{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": cell},
		})
		records = append(records, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": "cluster"},
		})
		for tid := 1; tid <= maxTid[cell]; tid++ {
			records = append(records, chromeMeta{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]string{"name": fmt.Sprintf("machine %d", tid-1)},
			})
		}
	}
	for _, s := range r.spans {
		dur := s.Dur * 1e6
		records = append(records, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: s.Start * 1e6, Dur: &dur,
			Pid: pidOf(s.Cell), Tid: chromeTid(s.Machine),
			Args: argMap(s.Args),
		})
	}
	for _, e := range r.events {
		records = append(records, chromeEvent{
			Name: e.Name, Cat: e.Kind, Ph: "i",
			Ts:  e.At * 1e6,
			Pid: pidOf(e.Cell), Tid: chromeTid(e.Machine),
			S:    "p",
			Args: argMap(e.Args),
		})
	}

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i, rec := range records {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// createOutput creates the export file via fsutil (parent directories
// as needed), so an export to a not-yet-existing directory succeeds
// instead of failing with a bare "open: no such file or directory".
func createOutput(path string) (*os.File, error) {
	f, err := fsutil.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create output file: %w", err)
	}
	return f, nil
}

// WriteChromeFile writes WriteChrome output to path, creating parent
// directories as needed.
func WriteChromeFile(path string, r *Recorder) error {
	f, err := createOutput(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSV renders every span and event as CSV rows with a fixed header.
// Args flatten to a "key=value|key=value" column.
func WriteCSV(w io.Writer, r *Recorder) error {
	if _, err := io.WriteString(w, "type,cell,cat,name,machine,start_sec,dur_sec,args\n"); err != nil {
		return err
	}
	for _, s := range r.spans {
		line := strings.Join([]string{
			"span", csvEscape(s.Cell), csvEscape(s.Cat), csvEscape(s.Name),
			fmt.Sprintf("%d", s.Machine), formatFloat(s.Start), formatFloat(s.Dur),
			csvEscape(joinArgs(s.Args)),
		}, ",") + "\n"
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	for _, e := range r.events {
		line := strings.Join([]string{
			"event", csvEscape(e.Cell), csvEscape(e.Kind), csvEscape(e.Name),
			fmt.Sprintf("%d", e.Machine), formatFloat(e.At), "0",
			csvEscape(joinArgs(e.Args)),
		}, ",") + "\n"
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVFile writes WriteCSV output to path, creating parent
// directories as needed.
func WriteCSVFile(path string, r *Recorder) error {
	f, err := createOutput(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func joinArgs(args []Arg) string {
	if len(args) == 0 {
		return ""
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.Key + "=" + formatFloat(a.Val)
	}
	return strings.Join(parts, "|")
}

// TopPhases summarizes the n most expensive phase and overhead spans of
// one cell, merging spans with the same name — the text behind each
// cell's -trace notes. Each line carries the total virtual time, the
// communication share (from the phase span's comm_sec annotation), and
// the task count.
func TopPhases(r *Recorder, cell string, n int, format func(sec float64) string) []string {
	type agg struct {
		sec   float64
		comm  float64
		tasks int
	}
	totals := map[string]*agg{}
	for _, s := range r.spans {
		if s.Cell != cell || (s.Cat != CatPhase && s.Cat != CatOverhead) {
			continue
		}
		a := totals[s.Name]
		if a == nil {
			a = &agg{}
			totals[s.Name] = a
		}
		a.sec += s.Dur
		a.comm += s.Arg("comm_sec")
		a.tasks += int(s.Arg("tasks"))
	}
	type kv struct {
		name string
		agg  *agg
	}
	all := make([]kv, 0, len(totals))
	for name, a := range totals {
		all = append(all, kv{name, a})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].agg.sec != all[j].agg.sec {
			return all[i].agg.sec > all[j].agg.sec
		}
		return all[i].name < all[j].name
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]string, 0, len(all))
	for _, e := range all {
		out = append(out, fmt.Sprintf("phase %-28s %s  comm %s  tasks %d",
			e.name, format(e.agg.sec), format(e.agg.comm), e.agg.tasks))
	}
	return out
}

// csvEscape quotes a field when it contains a delimiter or quote.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
