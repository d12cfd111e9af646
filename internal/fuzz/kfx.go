package fuzz

import (
	"errors"
	"fmt"

	"nephele/internal/core"
	"nephele/internal/gmem"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/proc"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// Mode selects which Fig. 9 series a session regenerates.
type Mode int

const (
	// ModeUnikraftClone is KFX+AFL over Nephele cloning: one clone is
	// made of the target VM, instrumented via clone_cow, and reset via
	// clone_reset between iterations.
	ModeUnikraftClone Mode = iota
	// ModeUnikraftBoot is KFX+AFL without cloning: a fresh VM is booted
	// (and destroyed) for every input — the only way to reach the same
	// starting state.
	ModeUnikraftBoot
	// ModeLinuxProcess is plain AFL over a native process with a fork
	// server (no KFX stepping, hence the superior baseline).
	ModeLinuxProcess
	// ModeLinuxKernelModule is KFX+AFL over a Linux HVM guest running a
	// self-contained module: heavier per-iteration state (the paper
	// measured ~8 dirty pages and a 250 µs reset, double Unikraft's).
	ModeLinuxKernelModule
)

func (m Mode) String() string {
	switch m {
	case ModeUnikraftClone:
		return "unikraft+cloning (KFX+AFL)"
	case ModeUnikraftBoot:
		return "unikraft (KFX+AFL)"
	case ModeLinuxProcess:
		return "linux process (AFL)"
	case ModeLinuxKernelModule:
		return "linux kernel module (KFX+AFL)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// AFL bookkeeping cost per iteration (input selection, mutation, coverage
// classification).
const costAFLIteration = 100 * vclock.Duration(1000) // 100µs

// Extra per-iteration overhead of the Linux kernel module target: the HVM
// guest executes more kernel code around the module and KFX tracks a
// larger working set.
const costKernelModuleExtra = 900 * vclock.Duration(1000) // 900µs

// costKFXAttach is the per-VM instrumentation cost of the no-cloning
// baseline: every fresh VM must be fully re-instrumented (breakpoints on
// every control-flow instruction) before fuzzing can run.
const costKFXAttach = 180 * vclock.Duration(1000*1000) // 180ms

// ErrSessionClosed reports iteration after Close.
var ErrSessionClosed = errors.New("fuzz: session closed")

// Config describes a fuzzing session.
type Config struct {
	Mode Mode
	// GetppidOnly runs the fully-supported-syscall baseline series.
	GetppidOnly bool
	// Supported lists the implemented syscalls of the target tree (the
	// paper's tree had partial support, a source of throughput
	// variation).
	Supported []int
	// Seed makes the run reproducible.
	Seed uint32
}

// Session is one fuzzing campaign.
type Session struct {
	cfg    Config
	p      *core.Platform
	mut    *Mutator
	cov    *Coverage
	corpus *Corpus

	// Unikraft-clone state.
	parentVM *guest.Kernel
	cloneVM  *guest.Kernel
	tgtClone *SyscallTarget
	// kernelStateAddr/kernelStackAddr are guest pages every iteration
	// dirties (bookkeeping + stack).
	kernelStateAddr gmem.GAddr
	kernelStackAddr gmem.GAddr

	// Unikraft-boot state: the config to boot each iteration from.
	bootCfg toolstack.DomainConfig

	// Linux state.
	machine *proc.Machine
	procTgt *SyscallTarget
	process *proc.Process

	iter     int
	closed   bool
	dirtySum int
	resetSum vclock.Duration
}

// defaultSupported mirrors a partially-supported syscall table.
func defaultSupported() []int {
	return []int{SysGetppid, SysWrite, SysRead, SysGetpid}
}

// NewSession prepares a campaign on a fresh platform.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Supported == nil {
		cfg.Supported = defaultSupported()
	}
	s := &Session{
		cfg:    cfg,
		mut:    NewMutator(cfg.Seed),
		cov:    NewCoverage(1 << 16),
		corpus: &Corpus{},
	}
	s.corpus.Add(CorpusEntry{Data: []byte{0, 0, 1, 1, 2, 2, 4, 4}})

	switch cfg.Mode {
	case ModeUnikraftClone, ModeUnikraftBoot:
		s.p = core.NewPlatform(core.Options{SkipNameCheck: true})
		s.bootCfg = toolstack.DomainConfig{
			Name:      "fuzz-target",
			MemoryMB:  4,
			VCPUs:     1,
			MaxClones: 1 << 20,
		}
		rec, err := s.p.Boot(s.bootCfg, nil)
		if err != nil {
			return nil, err
		}
		k, err := guest.Boot(s.p, rec, guest.FlavorUnikraft, nil)
		if err != nil {
			return nil, err
		}
		s.parentVM = k
		if cfg.Mode == ModeUnikraftClone {
			if err := s.setupClone(); err != nil {
				return nil, err
			}
		}
	case ModeLinuxProcess, ModeLinuxKernelModule:
		s.machine = proc.NewMachine(1 << 30)
		pr, err := s.machine.Spawn(1024, nil)
		if err != nil {
			return nil, err
		}
		s.process = pr
		tgt, err := NewSyscallTarget(pr, cfg.Supported)
		if err != nil {
			return nil, err
		}
		tgt.GetppidOnly = cfg.GetppidOnly
		s.procTgt = tgt
	}
	return s, nil
}

// setupClone runs the KFX preparation: clone the target VM from Dom0 and
// instrument the clone — breakpoint insertion in the clone's code pages
// through the clone_cow CLONEOP subcommand, so the family-shared frames
// stay pristine.
func (s *Session) setupClone() error {
	results, err := s.p.CloneOp(obs.OpCtx{},
		core.CloneSpec{Caller: mem.DomID0, Parent: s.parentVM.Dom, Count: 1})
	if err != nil {
		return err
	}
	dom, err := s.p.HV.Domain(results[0].Children[0])
	if err != nil {
		return err
	}
	// Build the clone kernel view by hand: KFX drives the clone from
	// Dom0, the clone itself never runs its own boot path.
	ck, err := guest.Adopt(s.p, dom, guest.FlavorUnikraft)
	if err != nil {
		return err
	}
	s.cloneVM = ck
	// Instrument: force COW for the code pages where breakpoints go.
	codePages := []mem.PFN{0, 1, 2, 3}
	if err := s.p.HV.CloneCOW(obs.OpCtx{}, ck.Dom, codePages); err != nil {
		return err
	}
	tgt, err := NewSyscallTarget(ck, s.cfg.Supported)
	if err != nil {
		return err
	}
	tgt.GetppidOnly = s.cfg.GetppidOnly
	s.tgtClone = tgt
	stateAddr, err := ck.Alloc(4096)
	if err != nil {
		return err
	}
	stackAddr, err := ck.Alloc(2 * 4096)
	if err != nil {
		return err
	}
	s.kernelStateAddr = stateAddr
	s.kernelStackAddr = stackAddr + 4096 // distinct page from stateAddr
	return nil
}

// Stats summarizes a session.
type Stats struct {
	Iterations int
	Edges      int
	Corpus     int
	// AvgDirtyPages is the mean pages restored per clone_reset (paper:
	// ~3 for Unikraft, ~8 for the Linux guest).
	AvgDirtyPages float64
	// AvgResetTime is the mean memory-reset duration (paper: ~125 µs vs
	// ~250 µs).
	AvgResetTime vclock.Duration
}

// Stats returns current campaign statistics.
func (s *Session) Stats() Stats {
	st := Stats{Iterations: s.iter, Edges: s.cov.Edges(), Corpus: s.corpus.Len()}
	if s.iter > 0 {
		st.AvgDirtyPages = float64(s.dirtySum) / float64(s.iter)
		st.AvgResetTime = s.resetSum / vclock.Duration(s.iter)
	}
	return st
}

// Iterate runs one fuzzing iteration, charging its full cost to meter,
// and reports whether the input increased coverage.
func (s *Session) Iterate(meter *vclock.Meter) (bool, error) {
	if s.closed {
		return false, ErrSessionClosed
	}
	if meter == nil {
		meter = vclock.NewMeter(nil)
	}
	meter.Add(costAFLIteration)
	base := s.corpus.Pick(s.iter)
	var input []byte
	if s.iter%7 == 6 && s.corpus.Len() > 1 {
		input = s.mut.Splice(base.Data, s.corpus.Pick(s.iter/2).Data)
	} else {
		input = s.mut.Mutate(base.Data)
	}
	s.iter++

	var res *ExecResult
	var err error
	switch s.cfg.Mode {
	case ModeUnikraftClone:
		res, err = s.iterateClone(input, meter)
	case ModeUnikraftBoot:
		res, err = s.iterateBoot(input, meter)
	case ModeLinuxProcess:
		res, err = s.procTgt.Execute(input, s.cov, false, meter)
		if err == nil {
			// Fork-server spawn per input.
			meter.Charge(meter.Costs().ProcForkBase, 1)
		}
	case ModeLinuxKernelModule:
		res, err = s.procTgt.Execute(input, s.cov, true, meter)
		if err == nil {
			meter.Add(costKernelModuleExtra)
			// KFX memory reset for the HVM guest: a consistently
			// larger dirty set than Unikraft's (~8 pages).
			dirty := 7 + res.DirtyOps%3
			s.dirtySum += dirty
			reset := vclock.Duration(dirty) * meter.Costs().CloneResetPage
			s.resetSum += reset
			meter.Add(reset)
		}
	}
	if err != nil {
		return false, err
	}
	if res.NewEdges > 0 {
		s.corpus.Add(CorpusEntry{Data: input, NewEdges: res.NewEdges})
		return true, nil
	}
	return false, nil
}

// iterateClone runs the input on the instrumented clone, then restores the
// clone's memory with clone_reset.
func (s *Session) iterateClone(input []byte, meter *vclock.Meter) (*ExecResult, error) {
	// Any execution dirties the guest's stack and kernel bookkeeping
	// pages, not just the target's explicit writes; together with the
	// scratch writes this yields the ~3 dirty pages per iteration the
	// paper reports for Unikraft.
	if err := s.cloneVM.WriteAt(s.kernelStateAddr, []byte{byte(s.iter)}, meter); err != nil {
		return nil, err
	}
	if err := s.cloneVM.WriteAt(s.kernelStackAddr, []byte{byte(s.iter >> 8)}, meter); err != nil {
		return nil, err
	}
	res, err := s.tgtClone.Execute(input, s.cov, true, meter)
	if err != nil {
		return nil, err
	}
	resetStart := meter.Elapsed()
	restored, err := s.p.HV.CloneReset(obs.Ctx(meter), s.cloneVM.Dom)
	if err != nil {
		return nil, err
	}
	s.dirtySum += restored
	s.resetSum += meter.Lap(resetStart)
	return res, nil
}

// iterateBoot boots a fresh VM, runs the input, destroys the VM — the
// no-cloning baseline averaging ~2 executions/second.
func (s *Session) iterateBoot(input []byte, meter *vclock.Meter) (*ExecResult, error) {
	cfg := s.bootCfg
	cfg.Name = fmt.Sprintf("fuzz-iter-%d", s.iter)
	rec, err := s.p.Boot(cfg, meter)
	if err != nil {
		return nil, err
	}
	k, err := guest.Boot(s.p, rec, guest.FlavorUnikraft, meter)
	if err != nil {
		return nil, err
	}
	tgt, err := NewSyscallTarget(k, s.cfg.Supported)
	if err != nil {
		return nil, err
	}
	tgt.GetppidOnly = s.cfg.GetppidOnly
	meter.Add(costKFXAttach)
	res, err := tgt.Execute(input, s.cov, true, meter)
	if err != nil {
		return nil, err
	}
	if err := s.p.Destroy(rec.ID, meter); err != nil {
		return nil, err
	}
	return res, nil
}

// Close ends the session.
func (s *Session) Close() { s.closed = true }
