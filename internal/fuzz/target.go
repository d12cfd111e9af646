package fuzz

import (
	"fmt"

	"nephele/internal/gmem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// SyscallTarget is the fuzzing target of §7.2: an adapter that interprets
// the AFL-generated input as a sequence of system calls and executes them
// against the syscall subsystem under test. It is built both as a Unikraft
// application (running over guest memory) and as a native Linux process
// (running over process memory) — the substrate is any gmem.MemIO.
//
// Input format: pairs of bytes (syscall number, argument). Unsupported
// syscalls return an error path edge; supported ones run and may dirty
// guest pages, which is what clone_reset must later undo.
type SyscallTarget struct {
	mem gmem.MemIO
	// scratch is a guest buffer the write-ish syscalls dirty.
	scratch   gmem.GAddr
	scratchSz int
	// supported marks implemented syscalls; the paper notes the
	// Unikraft tree's syscall support was partial, causing throughput
	// variation.
	supported [64]bool
	// GetppidOnly restricts the run to the getppid baseline of Fig. 9.
	GetppidOnly bool
}

// Syscall numbers the adapter understands.
const (
	SysGetppid = 0
	SysWrite   = 1
	SysRead    = 2
	SysBrk     = 3
	SysGetpid  = 4
	SysNanoslp = 5
)

// Per-"instruction" execution cost of the stepped target: KFX inserts
// breakpoints on control-flow instructions, so every executed edge costs a
// VM exit + singlestep on the instrumented runs.
const (
	costSyscallRun  = 350 * vclock.Duration(1000) // 350µs per interpreted syscall
	costEdgeStepped = 40 * vclock.Duration(1000)  // 40µs per instrumented edge (KFX breakpoint)
	costEdgeNative  = 2 * vclock.Duration(1000)   // 2µs per edge under plain AFL instrumentation
	costUnsupported = 20 * vclock.Duration(1000)  // error path
)

// NewSyscallTarget builds the adapter over mem, with a dirty-able scratch
// region.
func NewSyscallTarget(m gmem.MemIO, supported []int) (*SyscallTarget, error) {
	scratch, err := m.Alloc(3 * 4096)
	if err != nil {
		return nil, err
	}
	t := &SyscallTarget{mem: m, scratch: scratch, scratchSz: 3 * 4096}
	for _, s := range supported {
		if s >= 0 && s < len(t.supported) {
			t.supported[s] = true
		}
	}
	return t, nil
}

// ExecResult reports one target execution.
type ExecResult struct {
	Syscalls int
	Edges    int // edges traversed (instrumentation events)
	NewEdges int // previously-unseen edges
	DirtyOps int // writes performed into guest memory
}

// maxSyscallsPerInput bounds one execution (AFL trims its inputs; the
// adapter interprets at most this many syscalls, padding short inputs with
// getppid so every iteration runs a fixed-length sequence).
const maxSyscallsPerInput = 4

// Execute runs one input, recording coverage and charging stepped or
// native per-edge costs depending on instrumented.
func (t *SyscallTarget) Execute(ctx obs.OpCtx, input []byte, cov *Coverage, instrumented bool) (*ExecResult, error) {
	meter := ctx.Meter()
	res := &ExecResult{}
	if len(input) < 2*maxSyscallsPerInput {
		padded := make([]byte, 2*maxSyscallsPerInput)
		copy(padded, input)
		input = padded
	}
	edgeCost := costEdgeNative
	if instrumented {
		edgeCost = costEdgeStepped
	}
	pc := uint32(0x1000)
	step := func(to uint32) {
		res.Edges++
		if cov != nil && cov.Record(pc, to) {
			res.NewEdges++
		}
		meter.Add(edgeCost)
		pc = to
	}
	for i := 0; i+1 < len(input) && res.Syscalls < maxSyscallsPerInput; i += 2 {
		sys := int(input[i]) % len(t.supported)
		arg := input[i+1]
		if t.GetppidOnly {
			sys = SysGetppid
		}
		meter.Add(costSyscallRun)
		res.Syscalls++
		step(0x2000 + uint32(sys)*16)
		if !t.supported[sys] {
			meter.Add(costUnsupported)
			step(0xE000) // ENOSYS path
			continue
		}
		switch sys {
		case SysWrite:
			// Dirty a scratch page: this is what makes clone_reset
			// restore ~3 pages per Unikraft iteration.
			off := int(arg) % (t.scratchSz - 8)
			if err := t.mem.WriteAt(ctx, t.scratch+gmem.GAddr(off), []byte{arg, arg ^ 0xFF}); err != nil {
				return res, fmt.Errorf("fuzz: target write: %w", err)
			}
			res.DirtyOps++
			step(0x3000 + uint32(arg))
		case SysRead:
			buf := make([]byte, 2)
			off := int(arg) % (t.scratchSz - 8)
			if err := t.mem.ReadAt(t.scratch+gmem.GAddr(off), buf); err != nil {
				return res, fmt.Errorf("fuzz: target read: %w", err)
			}
			step(0x4000 + uint32(buf[0]))
		case SysBrk:
			step(0x5000 + uint32(arg)&0xF0)
		default: // getppid, getpid, nanosleep: pure paths
			step(0x6000 + uint32(sys)*4 + uint32(arg)&3)
		}
	}
	return res, nil
}
