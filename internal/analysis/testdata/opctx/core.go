// Package core is TestOpCtxThreading's fixture for rule A, scanned as a
// core directory: its exported entry points are OpCtx-first.
package core

import (
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

type Platform struct{}

// CloneOp is OpCtx-first: legal.
func (p *Platform) CloneOp(ctx obs.OpCtx, n int) error { return nil }

// Clone is a second, meter-first name for the same operation.
func (p *Platform) Clone(n int, meter *vclock.Meter) error { // want meter-first
	return p.CloneOp(obs.Ctx(meter), n)
}

// Boot is meter-first, but the scan's allowlist pins it.
func (p *Platform) Boot(n int, meter *vclock.Meter) error { return nil }

// helper is unexported: meter-first helpers are legal.
func helper(meter *vclock.Meter) {}

// NewMeter only returns a meter: legal.
func (p *Platform) NewMeter() *vclock.Meter { return vclock.NewMeter(nil) }
