package guest

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"nephele/internal/gmem"
	"nephele/internal/obs"
)

func mapEnv(t *testing.T) *Kernel {
	t.Helper()
	_, k := testEnv(t, guestCfg("map-host"))
	return k
}

func TestMapPutGet(t *testing.T) {
	k := mapEnv(t)
	m, err := gmem.NewHashMap(k, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(obs.OpCtx{}, "alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("Get = %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, err := m.Get("missing"); !errors.Is(err, gmem.ErrKeyNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
}

func TestMapOverwriteInPlace(t *testing.T) {
	k := mapEnv(t)
	m, _ := gmem.NewHashMap(k, 16)
	m.Put(obs.OpCtx{}, "k", []byte("longer-value"))
	if err := m.Put(obs.OpCtx{}, "k", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get("k")
	if string(got) != "tiny" {
		t.Fatalf("Get = %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMapOverwriteGrow(t *testing.T) {
	k := mapEnv(t)
	m, _ := gmem.NewHashMap(k, 16)
	m.Put(obs.OpCtx{}, "k", []byte("small"))
	if err := m.Put(obs.OpCtx{}, "k", []byte("a-much-longer-replacement-value")); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get("k")
	if string(got) != "a-much-longer-replacement-value" {
		t.Fatalf("Get = %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMapDelete(t *testing.T) {
	k := mapEnv(t)
	m, _ := gmem.NewHashMap(k, 4) // few buckets: exercise chain splicing
	for i := 0; i < 20; i++ {
		m.Put(obs.OpCtx{}, fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	if err := m.Delete(obs.OpCtx{}, "key-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("key-7"); !errors.Is(err, gmem.ErrKeyNotFound) {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 19 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Other keys in the same chain survive.
	for i := 0; i < 20; i++ {
		if i == 7 {
			continue
		}
		if _, err := m.Get(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatalf("key-%d lost after delete: %v", i, err)
		}
	}
	if err := m.Delete(obs.OpCtx{}, "never"); !errors.Is(err, gmem.ErrKeyNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestMapRange(t *testing.T) {
	k := mapEnv(t)
	m, _ := gmem.NewHashMap(k, 8)
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		val := fmt.Sprintf("v%02d", i)
		want[key] = val
		m.Put(obs.OpCtx{}, key, []byte(val))
	}
	got := map[string]string{}
	if err := m.Range(func(key string, val []byte) bool {
		got[key] = string(val)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Range visited %d, want %d", len(got), len(want))
	}
	for k2, v := range want {
		if got[k2] != v {
			t.Fatalf("Range[%s] = %q, want %q", k2, got[k2], v)
		}
	}
	// Early stop.
	count := 0
	m.Range(func(string, []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestMapChainCollisions(t *testing.T) {
	k := mapEnv(t)
	m, _ := gmem.NewHashMap(k, 1) // everything collides
	for i := 0; i < 50; i++ {
		if err := m.Put(obs.OpCtx{}, fmt.Sprintf("c%d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := m.Get(fmt.Sprintf("c%d", i))
		if err != nil || string(got) != fmt.Sprintf("val%d", i) {
			t.Fatalf("chain lookup c%d = %q, %v", i, got, err)
		}
	}
}

func TestMapMatchesGoMapProperty(t *testing.T) {
	// Property: after a random op sequence, the page-backed map agrees
	// with a plain Go map.
	k := mapEnv(t)
	f := func(ops []uint8) bool {
		m, err := gmem.NewHashMap(k, 8)
		if err != nil {
			return false
		}
		ref := map[string]string{}
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			switch op % 3 {
			case 0, 1:
				val := fmt.Sprintf("v%d-%d", op, i)
				if m.Put(obs.OpCtx{}, key, []byte(val)) != nil {
					return false
				}
				ref[key] = val
			case 2:
				err := m.Delete(obs.OpCtx{}, key)
				if _, ok := ref[key]; ok != (err == nil) {
					return false
				}
				delete(ref, key)
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for key, val := range ref {
			got, err := m.Get(key)
			if err != nil || string(got) != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
