package ring

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPushPopFIFO(t *testing.T) {
	r := New(4, 1)
	for i := 0; i < 4; i++ {
		if err := r.Push(Entry{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Push(Entry{}); !errors.Is(err, ErrFull) {
		t.Fatalf("push to full ring: %v, want ErrFull", err)
	}
	for i := 0; i < 4; i++ {
		e, err := r.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != uint64(i) {
			t.Fatalf("pop %d returned ID %d", i, e.ID)
		}
	}
	if _, err := r.Pop(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("pop from empty ring: %v, want ErrEmpty", err)
	}
}

func TestWraparound(t *testing.T) {
	r := New(2, 1)
	for i := 0; i < 100; i++ {
		if err := r.Push(Entry{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		e, err := r.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != uint64(i) {
			t.Fatalf("iteration %d popped %d", i, e.ID)
		}
	}
}

func TestLenAndCapacity(t *testing.T) {
	r := New(8, 2)
	if r.Capacity() != 8 || r.Pages() != 2 {
		t.Fatalf("geometry = (%d, %d), want (8, 2)", r.Capacity(), r.Pages())
	}
	r.Push(Entry{})
	r.Push(Entry{})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.Pop()
	if r.Len() != 1 {
		t.Fatalf("Len after pop = %d, want 1", r.Len())
	}
}

func TestCloneCopiesInFlightState(t *testing.T) {
	r := New(4, 1)
	r.Push(Entry{ID: 1, Payload: []byte("pkt1"), Meta: 100})
	r.Push(Entry{ID: 2, Payload: []byte("pkt2"), Meta: 200})
	r.Pop() // entry 1 consumed; only entry 2 is in flight

	c := r.Clone()
	if c.Len() != 1 {
		t.Fatalf("clone Len = %d, want 1", c.Len())
	}
	e, err := c.Pop()
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 2 || string(e.Payload) != "pkt2" || e.Meta != 200 {
		t.Fatalf("clone popped %+v", e)
	}
	// Deep copy: mutating clone payload must not affect the parent.
	r2 := New(4, 1)
	r2.Push(Entry{ID: 9, Payload: []byte("abcd")})
	c2 := r2.Clone()
	ce := c2.PeekAll()[0]
	ce.Payload[0] = 'X'
	pe := r2.PeekAll()[0]
	if pe.Payload[0] == 'X' {
		t.Fatal("clone aliases parent payload storage")
	}
}

func TestFreshIsEmptySameGeometry(t *testing.T) {
	r := New(4, 3)
	r.Push(Entry{ID: 1})
	f := r.Fresh()
	if f.Len() != 0 {
		t.Fatalf("fresh ring Len = %d, want 0", f.Len())
	}
	if f.Capacity() != 4 || f.Pages() != 3 {
		t.Fatalf("fresh geometry = (%d, %d), want (4, 3)", f.Capacity(), f.Pages())
	}
}

func TestPeekAllDoesNotConsume(t *testing.T) {
	r := New(4, 1)
	r.Push(Entry{ID: 1})
	r.Push(Entry{ID: 2})
	all := r.PeekAll()
	if len(all) != 2 || all[0].ID != 1 || all[1].ID != 2 {
		t.Fatalf("PeekAll = %v", all)
	}
	if r.Len() != 2 {
		t.Fatal("PeekAll consumed entries")
	}
}

func TestReset(t *testing.T) {
	r := New(4, 1)
	r.Push(Entry{ID: 1})
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset left entries")
	}
}

func TestBadSlotCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 1) did not panic")
		}
	}()
	New(0, 1)
}

func TestRingOrderProperty(t *testing.T) {
	// Property: for any interleaving of pushes and pops that respects
	// capacity, popped IDs form the pushed sequence in order.
	f := func(ops []bool) bool {
		r := New(8, 1)
		var pushed, popped []uint64
		next := uint64(0)
		for _, isPush := range ops {
			if isPush {
				if err := r.Push(Entry{ID: next}); err == nil {
					pushed = append(pushed, next)
					next++
				}
			} else {
				if e, err := r.Pop(); err == nil {
					popped = append(popped, e.ID)
				}
			}
		}
		for r.Len() > 0 {
			e, _ := r.Pop()
			popped = append(popped, e.ID)
		}
		if len(pushed) != len(popped) {
			return false
		}
		for i := range pushed {
			if pushed[i] != popped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRingIsAHeader: the slot count is a limit, not a size — a ring
// with nothing in flight clones (and starts fresh) as one object, whether it
// never carried an entry or has drained, and the copy still holds exactly
// Capacity entries.
func TestEmptyRingIsAHeader(t *testing.T) {
	never := New(256, 64)
	drained := New(256, 64)
	drained.Push(Entry{ID: 1})
	drained.Pop()
	var sink *Ring
	for name, r := range map[string]*Ring{"never used": never, "drained": drained} {
		for op, f := range map[string]func() *Ring{"Clone": r.Clone, "Fresh": r.Fresh} {
			if n := testing.AllocsPerRun(100, func() { sink = f() }); n != 1 {
				t.Errorf("%s of a %s 256-slot ring allocates %v objects, want 1", op, name, n)
			}
			if sink.Capacity() != 256 || sink.Pages() != 64 || sink.Len() != 0 {
				t.Errorf("%s of a %s ring: geometry (%d, %d), Len %d", op, name, sink.Capacity(), sink.Pages(), sink.Len())
			}
		}
	}
	c := drained.Clone()
	for i := 0; i < 256; i++ {
		if err := c.Push(Entry{ID: uint64(i)}); err != nil {
			t.Fatalf("push %d into the clone: %v", i, err)
		}
	}
	if err := c.Push(Entry{}); !errors.Is(err, ErrFull) {
		t.Fatalf("push 257: %v, want ErrFull", err)
	}
	if e, err := c.Pop(); err != nil || e.ID != 0 {
		t.Fatalf("clone pops %+v, %v", e, err)
	}
}

// TestCloneIsIndexExact: a ring cloned mid-wraparound keeps the parent's
// produce and consume indices, so both sides see the in-flight entries in
// the same slots and fill up after the same number of pushes.
func TestCloneIsIndexExact(t *testing.T) {
	r := New(4, 1)
	for i := 0; i < 7; i++ { // indices run past one lap: prod 7, cons 5
		r.Push(Entry{ID: uint64(i), Payload: []byte{byte(i)}})
		if i >= 2 {
			r.Pop()
		}
	}
	c := r.Clone()
	if c.prodIdx != r.prodIdx || c.consIdx != r.consIdx {
		t.Fatalf("clone indices (%d, %d), parent (%d, %d)", c.prodIdx, c.consIdx, r.prodIdx, r.consIdx)
	}
	for i := r.consIdx; i < r.prodIdx; i++ {
		pe, ce := r.slots[i%4], c.slots[i%4]
		if ce.ID != pe.ID || string(ce.Payload) != string(pe.Payload) || &ce.Payload[0] == &pe.Payload[0] {
			t.Fatalf("slot %d: clone %+v, parent %+v (or shared payload)", i%4, ce, pe)
		}
	}
	for _, ring := range []*Ring{r, c} {
		pushed := 0
		for ring.Push(Entry{}) == nil {
			pushed++
		}
		if pushed != 2 {
			t.Fatalf("ring took %d more entries, want 2", pushed)
		}
	}
}
