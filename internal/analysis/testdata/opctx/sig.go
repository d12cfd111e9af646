// Package sig is TestOpCtxSignatureFixture's fixture for rule A: nothing
// takes a *vclock.Meter parameter but the funcs the scan's allowlist pins.
// The test scans it under two package names.
package sig

import (
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

type Platform struct{}

// CloneOp is OpCtx-first: legal.
func (p *Platform) CloneOp(ctx obs.OpCtx, n int) error { return nil }

// Clone is a second, meter-first name for the same operation.
func (p *Platform) Clone(n int, meter *vclock.Meter) error { // want Platform.Clone
	return p.CloneOp(obs.Ctx(meter), n)
}

// Boot is meter-first, but the scan's allowlist pins it.
func (p *Platform) Boot(n int, meter *vclock.Meter) error { return nil }

// helper is unexported, and still a second context type.
func helper(meter *vclock.Meter) {} // want helper

// NewMeter only returns a meter: legal.
func (p *Platform) NewMeter() *vclock.Meter { return vclock.NewMeter(nil) }

// kind's func-typed field takes a meter.
type kind struct {
	clone func(n int, meter *vclock.Meter) error // want func type
	ok    func(ctx obs.OpCtx, n int) error
}

// writer's method takes a meter.
type writer interface {
	WriteAt(n int, meter *vclock.Meter) error // want func type
}

// hook is a named func type that takes a meter.
type hook func(*vclock.Meter) // want func type

// lit holds a literal that takes a meter.
var lit = func(m *vclock.Meter) {} // want func type
