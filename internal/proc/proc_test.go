package proc

import (
	"errors"
	"testing"

	"nephele/internal/gmem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	return NewMachine(256 << 20)
}

func TestSpawnAndExit(t *testing.T) {
	m := newMachine(t)
	free0 := m.Mem.FreeFrames()
	p, err := m.Spawn(obs.Ctx(vclock.NewMeter(nil)), 256)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProcessCount() != 1 {
		t.Fatalf("ProcessCount = %d", m.ProcessCount())
	}
	if p.Pages() != 256 {
		t.Fatalf("Pages = %d", p.Pages())
	}
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.FreeFrames(); got != free0 {
		t.Fatalf("exit leaked %d frames", free0-got)
	}
	if _, err := m.Process(p.PID); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("dead process still listed: %v", err)
	}
	if err := p.Exit(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestProcessMemIO(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Spawn(obs.OpCtx{}, 64)
	addr, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteAt(obs.OpCtx{}, addr, []byte("process data")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	p.ReadAt(addr, buf)
	if string(buf) != "process data" {
		t.Fatalf("read %q", buf)
	}
	if err := p.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestForkCOWIsolation(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Spawn(obs.OpCtx{}, 64)
	addr, _ := p.Alloc(32)
	p.WriteAt(obs.OpCtx{}, addr, []byte("original"))

	c, err := p.Fork(obs.OpCtx{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	c.ReadAt(addr, buf)
	if string(buf) != "original" {
		t.Fatalf("child read %q", buf)
	}
	c.WriteAt(obs.OpCtx{}, addr, []byte("childnew"))
	p.ReadAt(addr, buf)
	if string(buf) != "original" {
		t.Fatalf("parent sees child write: %q", buf)
	}
	if c.Faults() != 1 {
		t.Fatalf("child faults = %d", c.Faults())
	}
	if got := p.Children(); len(got) != 1 || got[0] != c.PID {
		t.Fatalf("Children = %v", got)
	}
}

func TestFirstForkCostsMoreThanSecond(t *testing.T) {
	// Fig. 6: the first fork write-protects the whole address space, so
	// it costs more than the second.
	m := NewMachine(8 << 30)
	p, _ := m.Spawn(obs.OpCtx{}, 1024*256) // 1 GiB resident
	m1 := vclock.NewMeter(nil)
	c1, err := p.Fork(obs.Ctx(m1))
	if err != nil {
		t.Fatal(err)
	}
	m2 := vclock.NewMeter(nil)
	c2, err := p.Fork(obs.Ctx(m2))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Elapsed() >= m1.Elapsed() {
		t.Fatalf("second fork (%v) not cheaper than first (%v)", m2.Elapsed(), m1.Elapsed())
	}
	// Both forks still pay the page-table copy, which dominates at 1 GiB.
	min := m2.Costs().ProcPTEntryCopy * vclock.Duration(1024*256)
	if m2.Elapsed() < min {
		t.Fatalf("second fork charged %v, below page-table floor %v", m2.Elapsed(), min)
	}
	c1.Exit()
	c2.Exit()
}

func TestForkDurationScalesWithMemory(t *testing.T) {
	// Fig. 6's x-axis: fork duration grows with resident memory.
	m := NewMachine(8 << 30)
	small, _ := m.Spawn(obs.OpCtx{}, 256)    // 1 MiB
	big, _ := m.Spawn(obs.OpCtx{}, 256*1024) // 1 GiB
	small.Fork(obs.OpCtx{})                  // retire first-fork premium
	big.Fork(obs.OpCtx{})
	ms := vclock.NewMeter(nil)
	small.Fork(obs.Ctx(ms))
	mb := vclock.NewMeter(nil)
	big.Fork(obs.Ctx(mb))
	if mb.Elapsed() < 100*ms.Elapsed() {
		t.Fatalf("1 GiB fork (%v) not ~1000x the 1 MiB fork (%v)", mb.Elapsed(), ms.Elapsed())
	}
}

func TestForkSnapshotSemanticsWithHashMap(t *testing.T) {
	// The same page-backed map used by guests works on processes — and
	// gives fork snapshots (the Redis baseline of Fig. 8).
	m := newMachine(t)
	p, _ := m.Spawn(obs.OpCtx{}, 1024)
	db, err := gmem.NewHashMap(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(obs.OpCtx{}, "k1", []byte("v1"))
	c, err := p.Fork(obs.OpCtx{})
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.CloneFor(c)
	db.Put(obs.OpCtx{}, "k1", []byte("MUTATED"))
	got, err := cdb.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("child snapshot sees %q", got)
	}
}

func TestForkDeadProcess(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Spawn(obs.OpCtx{}, 16)
	p.Exit()
	if _, err := p.Fork(obs.OpCtx{}); !errors.Is(err, ErrDead) {
		t.Fatalf("fork of dead process: %v", err)
	}
	if _, err := p.Alloc(16); !errors.Is(err, ErrDead) {
		t.Fatalf("alloc on dead process: %v", err)
	}
}

func TestChildIsFreshForFirstFork(t *testing.T) {
	// A forked child has never forked itself, so ITS first fork pays the
	// write-protect premium again.
	m := newMachine(t)
	p, _ := m.Spawn(obs.OpCtx{}, 1024)
	c, _ := p.Fork(obs.OpCtx{})
	mc := vclock.NewMeter(nil)
	if _, err := c.Fork(obs.Ctx(mc)); err != nil {
		t.Fatal(err)
	}
	floor := mc.Costs().ProcPTEntryCopy*1024 + mc.Costs().ProcMarkCOWEntry*1024
	if mc.Elapsed() < floor {
		t.Fatalf("child's first fork charged %v, want >= %v", mc.Elapsed(), floor)
	}
}
