package vclock

import (
	"testing"
	"time"
)

func TestVectorTickMerge(t *testing.T) {
	v := NewVector(3)
	if v.Hosts() != 3 {
		t.Fatalf("Hosts = %d, want 3", v.Hosts())
	}
	v.Tick(0, 10*time.Millisecond)
	v.Tick(1, 5*time.Millisecond)
	if got := v.At(0); got != 10*time.Millisecond {
		t.Fatalf("At(0) = %v", got)
	}
	peer := []Duration{3 * time.Millisecond, 20 * time.Millisecond, 1 * time.Millisecond}
	v.Merge(peer)
	want := []Duration{10 * time.Millisecond, 20 * time.Millisecond, 1 * time.Millisecond}
	got := v.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after merge component %d = %v, want %v (full: %v)", i, got[i], want[i], v)
		}
	}
	// Snapshot must be a copy: mutating it must not write through.
	got[0] = 0
	if v.At(0) != 10*time.Millisecond {
		t.Fatal("Snapshot aliased the vector's backing array")
	}
}

// TestVectorMergeMirrorsMeterMerge pins the merge rule to the meter-merge
// discipline of the clone pipeline: absorbing a peer snapshot and then
// ticking by the op's charged time must equal the sequential meter.Add of
// the child's elapsed time when the peer was already causally behind.
func TestVectorMergeMirrorsMeterMerge(t *testing.T) {
	a := NewVector(2)
	b := NewVector(2)
	a.Tick(0, 7*time.Millisecond) // A does local work
	// A ships a clone to B: B merges A's snapshot, then ticks its own
	// component by the transfer+materialize charge.
	b.Merge(a.Snapshot())
	b.Tick(1, 3*time.Millisecond)
	if ord := Compare(a.Snapshot(), b.Snapshot()); ord != Before {
		t.Fatalf("A %v vs B %v = %v, want before", a, b, ord)
	}
	// The reverse direction closes the loop.
	a.Merge(b.Snapshot())
	a.Tick(0, 1*time.Millisecond)
	if ord := Compare(b.Snapshot(), a.Snapshot()); ord != Before {
		t.Fatalf("B %v vs A %v = %v, want before", b, a, ord)
	}
}

func TestVectorCompare(t *testing.T) {
	ms := func(vals ...int) []Duration {
		out := make([]Duration, len(vals))
		for i, v := range vals {
			out[i] = Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		a, b []Duration
		want Ordering
	}{
		{ms(1, 2), ms(1, 2), Equal},
		{ms(1, 2), ms(1, 3), Before},
		{ms(2, 3), ms(1, 3), After},
		{ms(1, 5), ms(2, 4), Concurrent},
		{ms(0, 0), ms(0, 0), Equal},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if Equal.String() != "equal" || Concurrent.String() != "concurrent" {
		t.Errorf("Ordering strings: %v %v", Equal, Concurrent)
	}
}

func TestVectorPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewVector(0)", func() { NewVector(0) })
	expectPanic("negative tick", func() { NewVector(1).Tick(0, -1) })
	expectPanic("width mismatch merge", func() { NewVector(2).Merge([]Duration{1}) })
	expectPanic("width mismatch compare", func() { Compare([]Duration{1}, []Duration{1, 2}) })
}
