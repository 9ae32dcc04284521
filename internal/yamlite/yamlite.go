// Package yamlite converts a deliberately small hand-rolled YAML subset
// to JSON (the repo takes no dependencies): indentation-nested mappings,
// `- ` sequences, scalars, quotes, and # comments — which covers every
// profile and dataset spec this repo ships. Anchors, flow collections,
// and multi-line strings are not supported. Callers funnel the JSON into
// their own strict parsers (internal/loadgen profiles, internal/datagen
// dataset specs), so unknown-field and type errors surface there with
// the caller's context.
package yamlite

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ToJSON converts the YAML subset to JSON bytes.
func ToJSON(data []byte) ([]byte, error) {
	lines, err := yamlLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return []byte("{}"), nil
	}
	v, next, err := parseYAMLBlock(lines, 0, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("yaml line %d: unexpected indentation", lines[next].num)
	}
	return json.Marshal(v)
}

// yamlLine is one significant (non-blank, non-comment) line.
type yamlLine struct {
	num    int // 1-based source line
	indent int
	text   string // content after the indent, comment stripped
}

func yamlLines(data []byte) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(string(data), "\n") {
		if strings.Contains(raw, "\t") {
			return nil, fmt.Errorf("yaml line %d: tabs are not allowed for indentation", i+1)
		}
		text := stripYAMLComment(raw)
		trimmed := strings.TrimSpace(text)
		if trimmed == "" {
			continue
		}
		if trimmed == "---" { // document marker: ignore a single leading one
			continue
		}
		indent := len(text) - len(strings.TrimLeft(text, " "))
		out = append(out, yamlLine{num: i + 1, indent: indent, text: strings.TrimRight(text[indent:], " ")})
	}
	return out, nil
}

// stripYAMLComment cuts an unquoted trailing comment: a # at line start
// or preceded by whitespace, outside single or double quotes.
func stripYAMLComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

// parseYAMLBlock parses the run of lines at exactly `indent` starting at
// i — a mapping or a sequence — and returns the value and the index of
// the first line it did not consume.
func parseYAMLBlock(lines []yamlLine, i, indent int) (any, int, error) {
	if strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-" {
		return parseYAMLSeq(lines, i, indent)
	}
	return parseYAMLMap(lines, i, indent)
}

func parseYAMLMap(lines []yamlLine, i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(lines) {
		ln := lines[i]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, 0, fmt.Errorf("yaml line %d: unexpected indentation", ln.num)
		}
		key, rest, err := splitYAMLKey(ln)
		if err != nil {
			return nil, 0, err
		}
		if _, dup := m[key]; dup {
			return nil, 0, fmt.Errorf("yaml line %d: duplicate key %q", ln.num, key)
		}
		i++
		if rest != "" {
			m[key] = yamlScalar(rest)
			continue
		}
		// Block value: the nested lines (deeper indent), a sequence at the
		// same indent (YAML allows `key:` with `- ` items not indented
		// further), or nothing (null).
		if i < len(lines) && lines[i].indent > indent {
			v, next, err := parseYAMLBlock(lines, i, lines[i].indent)
			if err != nil {
				return nil, 0, err
			}
			m[key], i = v, next
		} else if i < len(lines) && lines[i].indent == indent &&
			(strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-") {
			v, next, err := parseYAMLSeq(lines, i, indent)
			if err != nil {
				return nil, 0, err
			}
			m[key], i = v, next
		} else {
			m[key] = nil
		}
	}
	return m, i, nil
}

func parseYAMLSeq(lines []yamlLine, i, indent int) (any, int, error) {
	seq := []any{}
	for i < len(lines) {
		ln := lines[i]
		if ln.indent != indent || (ln.text != "-" && !strings.HasPrefix(ln.text, "- ")) {
			if ln.indent > indent {
				return nil, 0, fmt.Errorf("yaml line %d: unexpected indentation", ln.num)
			}
			break
		}
		if ln.text == "-" {
			// Item body on the following deeper-indented lines.
			i++
			if i >= len(lines) || lines[i].indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, next, err := parseYAMLBlock(lines, i, lines[i].indent)
			if err != nil {
				return nil, 0, err
			}
			seq, i = append(seq, v), next
			continue
		}
		body := strings.TrimPrefix(ln.text, "- ")
		// An inline `- key: value` opens a map whose remaining keys sit at
		// the item's body indent on the following lines.
		if k, rest, err := splitYAMLKey(yamlLine{num: ln.num, text: body}); err == nil {
			bodyIndent := indent + 2
			item := map[string]any{}
			i++
			if rest != "" {
				item[k] = yamlScalar(rest)
			} else if i < len(lines) && lines[i].indent > bodyIndent {
				v, next, perr := parseYAMLBlock(lines, i, lines[i].indent)
				if perr != nil {
					return nil, 0, perr
				}
				item[k], i = v, next
			} else {
				item[k] = nil
			}
			if i < len(lines) && lines[i].indent == bodyIndent {
				rem, next, perr := parseYAMLMap(lines, i, bodyIndent)
				if perr != nil {
					return nil, 0, perr
				}
				for rk, rv := range rem.(map[string]any) {
					if _, dup := item[rk]; dup {
						return nil, 0, fmt.Errorf("yaml line %d: duplicate key %q", ln.num, rk)
					}
					item[rk] = rv
				}
				i = next
			}
			seq = append(seq, item)
			continue
		}
		seq = append(seq, yamlScalar(body))
		i++
	}
	return seq, i, nil
}

// splitYAMLKey splits `key: value` / `key:`; the key may be quoted.
func splitYAMLKey(ln yamlLine) (key, rest string, err error) {
	s := ln.text
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		q := s[0]
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			return "", "", fmt.Errorf("yaml line %d: unterminated quoted key", ln.num)
		}
		key = s[1 : 1+end]
		s = s[2+end:]
		if !strings.HasPrefix(s, ":") {
			return "", "", fmt.Errorf("yaml line %d: expected ':' after key", ln.num)
		}
		return key, strings.TrimSpace(s[1:]), nil
	}
	idx := strings.Index(s, ":")
	if idx < 0 {
		return "", "", fmt.Errorf("yaml line %d: expected 'key: value', got %q", ln.num, s)
	}
	after := s[idx+1:]
	if after != "" && !strings.HasPrefix(after, " ") {
		return "", "", fmt.Errorf("yaml line %d: expected a space after ':' in %q", ln.num, s)
	}
	return strings.TrimSpace(s[:idx]), strings.TrimSpace(after), nil
}

// yamlScalar interprets a scalar token: quotes, null, booleans, numbers,
// bare strings.
func yamlScalar(s string) any {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') && s[len(s)-1] == s[0] {
		if s[0] == '"' {
			if u, err := strconv.Unquote(s); err == nil {
				return u
			}
		}
		return strings.ReplaceAll(s[1:len(s)-1], string(s[0])+string(s[0]), string(s[0]))
	}
	switch s {
	case "null", "~":
		return nil
	case "true":
		return true
	case "false":
		return false
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	// ParseFloat also reads nan, inf and infinity in any case, which JSON
	// cannot carry; such a token stays a string (YAML 1.2 spells those
	// floats .nan and .inf), so the caller's parser reports it in context.
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return s
}
