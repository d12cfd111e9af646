// Package obs is the opctx fixture's stand-in for the observability
// package: the OpCtx shape with the constructors the analyzer polices and
// the derivation methods it must leave alone.
package obs

import "nephele/internal/analysis/opctx/testdata/src/vclock"

// Trace mimics obs.Trace.
type Trace struct{}

// NewTrace mimics obs.NewTrace.
func NewTrace() *Trace { return &Trace{} }

// OpCtx mimics obs.OpCtx.
type OpCtx struct {
	meter *vclock.Meter
	trace *Trace
}

// Ctx mimics obs.Ctx.
func Ctx(m *vclock.Meter) OpCtx { return OpCtx{meter: m} }

// WithMeter derives a context with a replacement meter.
func (c OpCtx) WithMeter(m *vclock.Meter) OpCtx { c.meter = m; return c }
