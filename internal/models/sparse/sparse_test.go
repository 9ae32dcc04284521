package sparse

import (
	"reflect"
	"testing"

	"mlbench/internal/linalg"
)

type entry struct {
	row, col int
	v        float64
}

func entries(c *Counts) []entry {
	var out []entry
	c.Each(func(row, col int, v float64) { out = append(out, entry{row, col, v}) })
	return out
}

func TestTouchOrderAndFold(t *testing.T) {
	a := New(4)
	a.Add(1, 3, 2)
	a.Add(0, 2, 1)
	a.Add(1, 3, 0.5)
	b := New(4)
	b.Add(2, 0, 4)
	b.Add(0, 2, 1)
	a.Merge(b)
	want := []entry{{1, 3, 2.5}, {0, 2, 2}, {2, 0, 4}}
	if got := entries(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries = %v, want %v (touch order)", got, want)
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	rows := []linalg.Vec{{1, 1, 1, 1}, {0, 0, 0, 0}, {0, 0, 0, 0}}
	a.AddTo(rows)
	wantRows := []linalg.Vec{{1, 1, 3, 1}, {0, 0, 0, 2.5}, {4, 0, 0, 0}}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("AddTo = %v, want %v", rows, wantRows)
	}
}
