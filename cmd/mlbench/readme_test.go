package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// README.md teaches `mlbench run` by example. Every such line in its
// fenced blocks must still parse with the run flags and name a spec that
// validates, so a renamed figure, row, column or flag fails here instead
// of in a reader's terminal.
func TestReadmeRunLines(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := readmeRunLines(string(data))
	if len(lines) < 20 {
		t.Fatalf("found only %d `mlbench run` lines in README.md fenced blocks", len(lines))
	}
	for _, args := range lines {
		name := strings.Join(args, " ")
		if name == "" {
			name = "all figures"
		}
		t.Run(name, func(t *testing.T) {
			specs, _, _, code := parseRun(args)
			if specs == nil {
				t.Fatalf("run arguments rejected (exit %d)", code)
			}
			for _, s := range specs {
				if err := s.Normalize().Validate(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// readmeRunLines returns the arguments after `mlbench run` of every
// command line inside a fenced block of md.
func readmeRunLines(md string) [][]string {
	var out [][]string
	fenced := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		words := shellWords(line)
		for i := 0; i+1 < len(words); i++ {
			if (words[i] == "mlbench" || strings.HasSuffix(words[i], "/mlbench")) && words[i+1] == "run" {
				out = append(out, words[i+2:])
				break
			}
		}
	}
	return out
}

// shellWords splits a command line on blanks, honouring double quotes
// and dropping a # comment.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range line {
		switch {
		case r == '"':
			quoted, inWord = !quoted, true
		case quoted:
			cur.WriteRune(r)
		case r == '#' && !inWord:
			return words
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

func TestShellWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`go run ./cmd/mlbench run -figure fig1a`, []string{"go", "run", "./cmd/mlbench", "run", "-figure", "fig1a"}},
		{`mlbench run -row "Spark (Python)" -col 10d/5m`, []string{"mlbench", "run", "-row", "Spark (Python)", "-col", "10d/5m"}},
		{`mlbench run -figure fig7   # 1 crash per cell`, []string{"mlbench", "run", "-figure", "fig7"}},
		{`mlbench run -col "a # b"`, []string{"mlbench", "run", "-col", "a # b"}},
		{`mlbench run -x a#b`, []string{"mlbench", "run", "-x", "a#b"}},
		{`# mlbench run -figure fig1a`, nil},
		{"", nil},
	}
	for _, tc := range cases {
		if got := shellWords(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("shellWords(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestReadmeRunLinesExtraction(t *testing.T) {
	md := "mlbench run -figure unfenced\n" +
		"```\n" +
		"go run ./cmd/mlbench run -figure fig6 -iters 1   # fenced\n" +
		"mlbench serve -addr :8080\n" +
		"# mlbench run -figure commented\n" +
		"/tmp/mlbench run\n" +
		"```\n" +
		"mlbench run -figure after\n"
	got := readmeRunLines(md)
	want := [][]string{{"-figure", "fig6", "-iters", "1"}, {}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readmeRunLines = %q, want %q", got, want)
	}
}

// The README's single-cell lines are its runnable tour: each must not
// only validate but run to completion.
func TestReadmeSingleCellLinesRun(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, args := range readmeRunLines(string(data)) {
		line := strings.Join(args, " ")
		if !strings.Contains(line, "-row") || !strings.Contains(line, "-col") {
			continue
		}
		cells++
		t.Run(line, func(t *testing.T) {
			if code := dispatch(append([]string{"run"}, args...)); code != 0 {
				t.Fatalf("mlbench run %s exited %d", line, code)
			}
		})
	}
	if cells < 6 {
		t.Fatalf("README has %d single-cell run lines, want the six-line tour", cells)
	}
}
