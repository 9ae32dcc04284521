package ordmap

import (
	"testing"
	"testing/quick"
)

func keysOf[K comparable, V any](m *Map[K, V]) []K {
	var keys []K
	for _, e := range m.Entries() {
		keys = append(keys, e.Key)
	}
	return keys
}

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
	keys := keysOf(m)
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
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
	if keys := keysOf(m); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
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

func TestZeroValueMap(t *testing.T) {
	var m Map[string, int]
	if _, ok := m.Get("a"); ok || m.Len() != 0 {
		t.Fatal("zero Map is not empty")
	}
	if _, ok := m.Find("a", Hash("a")); ok {
		t.Fatal("Find in a zero Map succeeded")
	}
	m.Reset()
	m.Set("a", 1)
	p, ok := m.Ref("b")
	*p = 2
	if v, _ := m.Get("a"); ok || v != 1 || m.Len() != 2 {
		t.Fatalf("zero Map after Set and Ref: a = %d, Ref found = %v, Len = %d", v, ok, m.Len())
	}
	m.Reset()
	if _, ok := m.Get("a"); ok || m.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
	m.Set("b", 3)
	if keys := keysOf(&m); len(keys) != 1 || keys[0] != "b" {
		t.Fatalf("after Reset, keys = %v", keys)
	}
}

// Every key hashing alike puts all of them on one probe chain: lookups
// must still find each key, growth must keep them, and entry numbers
// must follow first insertion.
func TestSurvivesTotalCollision(t *testing.T) {
	type key struct{ a, b float64 }
	for _, h := range []uint64{0, 1 << 63, 0x9e3779b97f4a7c15} {
		var x Map[key, int]
		var keys []key
		for i := 0; i < 300; i++ {
			k := key{float64(i % 150), float64(i / 150)}
			if e, ok := x.Put(k, h); ok || e != i {
				t.Fatalf("Put of new key %d = %d, %v", i, e, ok)
			}
			keys = append(keys, k)
		}
		for i, k := range keys {
			if e, ok := x.Put(k, h); !ok || e != i {
				t.Errorf("re-Put of key %d = %d, %v", i, e, ok)
			}
			if e, ok := x.Find(k, h); !ok || e != i {
				t.Errorf("Find of key %d = %d, %v", i, e, ok)
			}
		}
		if _, ok := x.Find(key{-1, 0}, h); ok {
			t.Error("Find of an absent key succeeded")
		}
		if x.Len() != len(keys) {
			t.Errorf("Len = %d, want %d", x.Len(), len(keys))
		}
	}
}

// The entries grow with the index, by doubling, so an insertion between
// two growths never moves them. Grown by append instead, they would move
// about every quarter of their length once past 256 entries.
func TestEntriesGrowWithIndex(t *testing.T) {
	var m Map[int, int]
	moves, growths := 0, 0
	for i := 0; i < 100000; i++ {
		slots, ents := len(m.slots), m.entries
		m.Set(i, i)
		if len(m.slots) != slots {
			growths++
		}
		if len(ents) > 0 && &ents[0] != &m.entries[0] {
			moves++
		}
	}
	if moves > growths {
		t.Errorf("entries moved %d times over %d index growths", moves, growths)
	}
}

// Hash is the dataflow shuffle's routing hash, so these values are
// output: a changed one moves keys between partitions and with them the
// golden tables. The literals are the hashes the engines have always used
// (MurmurHash3's finalizer for the integer kinds, FNV-1a otherwise).
func TestHashPinned(t *testing.T) {
	type posKey struct{ doc, pos int }
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"int", Hash(int(42)), 0x810879608e4259cc},
		{"negative int", Hash(int(-7)), 0x42de8e21f5fd8efe},
		{"int64", Hash(int64(1) << 40), 0xe80f632ed2f232f6},
		{"int32", Hash(int32(-3)), 0xaa3bfbb05a0636c2},
		{"uint64", Hash(uint64(0xdeadbeef)), 0xd24bd59f862a1dac},
		{"string", Hash("model"), 0x9de543933e6e703a},
		{"empty string", Hash(""), 0xcbf29ce484222325},
		{"struct", Hash(posKey{3, 17}), 0x90d443a387545b8},
	} {
		if c.got != c.want {
			t.Errorf("Hash(%s) = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// Hashing an integer or a string, and looking one up, allocates nothing.
func TestLookupsDoNotAllocate(t *testing.T) {
	m := New[string, float64]()
	m.Set("model", 1)
	ints := New[int, int]()
	ints.Set(1000, 1)
	if n := testing.AllocsPerRun(100, func() {
		_, _ = m.Get("model")
		p, _ := m.Ref("model")
		*p++
		_, _ = ints.Get(1000)
	}); n != 0 {
		t.Errorf("lookups allocate %v times per run", n)
	}
}
