package ordmap

import (
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	m := New[string, int]()
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map claims to contain a key")
	}
	m.Set("a", 1)
	m.Set("b", 2)
	m.Set("a", 3)
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestInsertionOrderPreserved(t *testing.T) {
	m := New[int, int]()
	for _, k := range []int{5, 3, 9, 3, 1} {
		m.Set(k, k)
	}
	want := []int{5, 3, 9, 1}
	keys := m.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestMerge(t *testing.T) {
	m := New[string, int]()
	add := func(a, b int) int { return a + b }
	m.Merge("x", 1, add)
	m.Merge("x", 2, add)
	m.Merge("y", 5, add)
	if v, _ := m.Get("x"); v != 3 {
		t.Errorf("Merge x = %d, want 3", v)
	}
	if v, _ := m.Get("y"); v != 5 {
		t.Errorf("Merge y = %d, want 5", v)
	}
}

func TestRef(t *testing.T) {
	m := New[string, int]()
	m.Set("a", 1)
	p, ok := m.Ref("b")
	if ok || *p != 0 {
		t.Fatalf("Ref(absent) = %d, %v; want the zero value, false", *p, ok)
	}
	*p = 7
	p, ok = m.Ref("b")
	if !ok || *p != 7 {
		t.Fatalf("Ref(present) = %d, %v; want 7, true", *p, ok)
	}
	*p++
	if v, _ := m.Get("b"); v != 8 {
		t.Errorf("write through Ref lost: Get = %d, want 8", v)
	}
	if keys := m.Keys(); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Ref broke insertion order: %v", keys)
	}
}

func TestEachVisitsAllInOrder(t *testing.T) {
	m := New[int, int]()
	for i := 10; i > 0; i-- {
		m.Set(i, i*i)
	}
	prev := 11
	count := 0
	m.Each(func(k, v int) {
		if k != prev-1 || v != k*k {
			t.Errorf("Each out of order: k=%d prev=%d", k, prev)
		}
		prev = k
		count++
	})
	if count != 10 {
		t.Errorf("Each visited %d entries", count)
	}
}

// Property: after any sequence of sets, Len equals the number of distinct
// keys and Each yields first-insertion order.
func TestQuickOrderInvariant(t *testing.T) {
	f := func(keys []uint8) bool {
		m := New[uint8, int]()
		var order []uint8
		seen := map[uint8]bool{}
		for i, k := range keys {
			m.Set(k, i)
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
		if m.Len() != len(order) {
			return false
		}
		i := 0
		ok := true
		m.Each(func(k uint8, v int) {
			if k != order[i] {
				ok = false
			}
			i++
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
