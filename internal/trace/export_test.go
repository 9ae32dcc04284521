package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chromeDoc mirrors the trace-event JSON container for validation.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeValidAndComplete(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var x, i, m int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("span %q has negative time: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
		case "i":
			i++
		case "M":
			m++
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
		pids[ev.Pid] = true
	}
	if x != 5 || i != 1 {
		t.Errorf("spans=%d events=%d, want 5 and 1", x, i)
	}
	if len(pids) != 2 {
		t.Errorf("distinct pids = %d, want 2 (one per cell)", len(pids))
	}
	if m == 0 {
		t.Error("no metadata records (process/thread names)")
	}
	// Microsecond conversion: the 2.5 s load phase must appear as 2.5e6.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "load" && ev.Cat == CatPhase {
			found = true
			if ev.Dur != 2.5e6 {
				t.Errorf("load dur = %v µs, want 2.5e6", ev.Dur)
			}
			if ev.Tid != 0 {
				t.Errorf("cluster-wide span on tid %d, want 0", ev.Tid)
			}
			if ev.Args["comm_sec"] != 0.5 {
				t.Errorf("load args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Error("load phase span missing from export")
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical recordings exported differently")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 5 spans + 1 event
	if len(lines) != 7 {
		t.Fatalf("lines = %d, want 7:\n%s", len(lines), buf.String())
	}
	if lines[0] != "type,cell,cat,name,machine,start_sec,dur_sec,args" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "span,figX/RowA/colA,phase,load,-1,0,2.5,") {
		t.Errorf("first span row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[6], "event,figX/RowA/colA,fault,crash,1,1,0") {
		t.Errorf("event row = %q", lines[6])
	}
}

func TestTopPhasesMergesAndSorts(t *testing.T) {
	r := NewRecorder()
	r.BeginCell("c")
	r.AddSpan("big", CatPhase, -1, 0, 5, A("comm_sec", 1), A("tasks", 2))
	r.AddSpan("big", CatPhase, -1, 5, 5, A("comm_sec", 1), A("tasks", 2))
	r.AddSpan("small", CatPhase, -1, 10, 1)
	r.AddSpan("launch", CatOverhead, -1, 11, 3)
	r.AddSpan("ignored-task", CatTask, 0, 0, 99)
	format := func(sec float64) string { return fmt.Sprintf("%.0fs", sec) }
	lines := TopPhases(r, "c", 2, format)
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], "big") || !strings.Contains(lines[0], "10s") ||
		!strings.Contains(lines[0], "comm 2s") || !strings.Contains(lines[0], "tasks 4") {
		t.Errorf("merged line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "launch") {
		t.Errorf("second line should be the 3s overhead, got %q", lines[1])
	}
}

// The file writers behind -traceout and -tracecsv create missing parent
// directories and write exactly what the stream writers produce.
func TestWriteChromeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "dir", "trace.json")
	if err := WriteChromeFile(path, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteChrome(&want, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file content differs from WriteChrome (err %v)", err)
	}
}

func TestWriteCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "trace.csv")
	if err := WriteCSVFile(path, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteCSV(&want, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file content differs from WriteCSV (err %v)", err)
	}
}

// Cell and phase names come from figure row and column labels; a comma
// or quote in one must not shift the CSV columns.
func TestWriteCSVEscapes(t *testing.T) {
	r := NewRecorder()
	r.BeginCell(`fig/Row, "quoted"/col`)
	r.AddSpan("a,b", CatPhase, -1, 0, 1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][1] != `fig/Row, "quoted"/col` || rows[1][3] != "a,b" {
		t.Fatalf("rows = %q", rows)
	}
}
