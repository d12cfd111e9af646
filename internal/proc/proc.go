// Package proc simulates the Linux process substrate used as the paper's
// baselines: processes with copy-on-write address spaces and fork()
// semantics (Figs. 6-8) and the container runtime footprint model used by
// the FaaS comparison (Figs. 10-11). The page machinery is the shared
// internal/mem pool, but Linux charges fork differently from Xen cloning:
// no per-page ownership transfer, just page-table copying plus first-fork
// write protection — the asymmetry Fig. 6 measures.
package proc

import (
	"errors"
	"fmt"
	"sync"

	"nephele/internal/gmem"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// PID identifies a process.
type PID uint32

// Errors.
var (
	ErrNoProcess = errors.New("proc: no such process")
	ErrDead      = errors.New("proc: process exited")
)

// Machine is one Linux host (or a Linux guest VM, as in the Fig. 8
// baseline where Redis runs inside an Alpine VM).
type Machine struct {
	Mem *mem.Memory

	mu      sync.Mutex
	procs   map[PID]*Process
	nextPID PID
}

// NewMachine creates a host with the given RAM.
func NewMachine(ramBytes uint64) *Machine {
	return &Machine{
		Mem:     mem.New(ramBytes),
		procs:   make(map[PID]*Process),
		nextPID: 1,
	}
}

// ProcessCount reports live processes.
func (m *Machine) ProcessCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.procs)
}

// Process is one Linux process: an address space plus a page-backed heap,
// satisfying gmem.MemIO so the same application code (the Redis store, the
// NGINX counters) runs unmodified on processes and unikernels.
type Process struct {
	PID     PID
	machine *Machine

	mu         sync.Mutex
	space      *mem.Space
	heap       *gmem.Heap
	forkedOnce bool
	dead       bool
	parent     PID
	children   []PID
}

// Spawn creates a fresh process with pages of resident memory (execve of a
// new program; charged as exec).
func (m *Machine) Spawn(pages int, meter *vclock.Meter) (*Process, error) {
	m.mu.Lock()
	pid := m.nextPID
	m.nextPID++
	m.mu.Unlock()

	space, err := mem.NewSpace(m.Mem, mem.DomID(pid), pages, nil)
	if err != nil {
		return nil, err
	}
	meter.Charge(meter.Costs().ProcExecBase, 1)
	p := &Process{
		PID:     pid,
		machine: m,
		space:   space,
		heap:    gmem.NewHeap(16, gmem.GAddr(pages)*mem.PageSize),
	}
	m.mu.Lock()
	m.procs[pid] = p
	m.mu.Unlock()
	return p, nil
}

// Process looks a process up.
func (m *Machine) Process(pid PID) (*Process, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Pages reports the process's resident page count.
func (p *Process) Pages() int { return p.space.Pages() }

// Faults reports COW faults taken by this process.
func (p *Process) Faults() int { return p.space.Faults() }

// Alloc implements gmem.MemIO.
func (p *Process) Alloc(size int) (gmem.GAddr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return 0, ErrDead
	}
	return p.heap.Alloc(size)
}

// Free implements gmem.MemIO.
func (p *Process) Free(addr gmem.GAddr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heap.Free(addr)
}

// ReadAt implements gmem.MemIO.
func (p *Process) ReadAt(addr gmem.GAddr, buf []byte) error {
	return gmem.ReadGuest(p.space, addr, buf)
}

// WriteAt implements gmem.MemIO.
func (p *Process) WriteAt(addr gmem.GAddr, buf []byte, meter *vclock.Meter) error {
	return gmem.WriteGuest(p.space, addr, buf, meter)
}

var _ gmem.MemIO = (*Process)(nil)

// Fork clones the process with COW semantics. The cost model follows
// ON-DEMAND-FORK's finding (and the paper's Fig. 6): fork duration is
// dominated by page-table copying; the first fork additionally
// write-protects every mapping.
func (p *Process) Fork(meter *vclock.Meter) (*Process, error) {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return nil, ErrDead
	}
	first := !p.forkedOnce
	p.forkedOnce = true
	heap := p.heap.Clone()
	p.mu.Unlock()

	p.machine.mu.Lock()
	pid := p.machine.nextPID
	p.machine.nextPID++
	p.machine.mu.Unlock()

	// Real COW cloning through the shared memory substrate, but charged
	// with Linux costs (no ownership-transfer fee): pass a meterless
	// context and account explicitly from the returned stats.
	cspace, st, err := p.space.CloneOp(obs.OpCtx{}, mem.DomID(pid), true)
	if err != nil {
		return nil, err
	}
	meter.Charge(meter.Costs().ProcForkBase, 1)
	meter.Charge(meter.Costs().ProcPTEntryCopy, st.PTEntries)
	if first {
		meter.Charge(meter.Costs().ProcMarkCOWEntry, st.PTEntries)
	}
	child := &Process{
		PID:     pid,
		machine: p.machine,
		space:   cspace,
		heap:    heap,
		parent:  p.PID,
		// The child of a forked process has itself never forked.
	}
	p.mu.Lock()
	p.children = append(p.children, pid)
	p.mu.Unlock()
	p.machine.mu.Lock()
	p.machine.procs[pid] = child
	p.machine.mu.Unlock()
	return child, nil
}

// Exit terminates the process and releases its memory.
func (p *Process) Exit() error {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return nil
	}
	p.dead = true
	p.mu.Unlock()
	p.machine.mu.Lock()
	delete(p.machine.procs, p.PID)
	p.machine.mu.Unlock()
	return p.space.Release()
}

// Children lists the live children PIDs.
func (p *Process) Children() []PID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PID, len(p.children))
	copy(out, p.children)
	return out
}
