// Package obs is the observability layer of the clone pipeline: spans
// recording virtual (and wall) time per pipeline phase, a registry of
// counters/gauges/histograms, and the OpCtx value that threads both —
// together with the operation's vclock.Meter and an optional fault scope —
// through the hypervisor first stage and the xencloned second stage.
//
// Two invariants shape the design:
//
//  1. A disabled sink costs nothing. OpCtx is a small by-value struct; with
//     no trace attached StartSpan returns the zero Span and every method is
//     a no-op — the clone hot path allocates exactly as much as it did
//     before the layer existed.
//  2. Span emission is deterministic under virtual time. Spans carry
//     virtual timestamps read from the operation's meter, and the one
//     background section (a lazy clone's streamer) records onto a detached
//     sub-trace that is absorbed into the waiter's trace at a fixed point —
//     mirroring the meter merge — so golden tests can pin span names,
//     counts and virtual timestamps.
//     Wall-clock readings are recorded alongside but never order anything.
package obs

import (
	"nephele/internal/fault"
	"nephele/internal/vclock"
)

// OpCtx carries the per-operation state the clone pipeline used to thread
// as a bare *vclock.Meter parameter: the meter itself, the active span of
// an attached trace, and an optional fault-injection scope that overrides
// the component registries for this operation only. It is passed by value;
// deriving methods (WithMeter, StartSpan, ...) return a modified copy.
//
// The zero value is a valid disabled context: no meter (callees skip
// charging, exactly as with a nil meter before), no trace (spans are
// no-ops) and no fault scope (callees fall back to their component
// registry).
type OpCtx struct {
	meter  *vclock.Meter
	trace  *Trace
	span   int32 // active span ID in trace; 0 = top level
	faults *fault.Registry
}

// Ctx wraps a meter into an operation context. A nil meter is allowed and
// keeps the context's charging disabled, matching the legacy nil-meter
// convention.
//
//nephele:noalloc
func Ctx(meter *vclock.Meter) OpCtx { return OpCtx{meter: meter} }

// Meter returns the context's meter (nil when charging is disabled).
//
//nephele:noalloc
func (c OpCtx) Meter() *vclock.Meter { return c.meter }

// WithMeter returns a copy of the context charging onto m.
//
//nephele:noalloc
func (c OpCtx) WithMeter(m *vclock.Meter) OpCtx {
	c.meter = m
	return c
}

// EnsureMeter returns the context itself when it has a meter, or a copy
// with a fresh meter against the given cost table (nil = defaults) — the
// OpCtx analogue of the "nil meter gets a throwaway one" convention.
func (c OpCtx) EnsureMeter(costs *vclock.CostModel) OpCtx {
	if c.meter == nil {
		c.meter = vclock.NewMeter(costs)
	}
	return c
}

// Trace returns the attached trace (nil when span recording is disabled).
//
//nephele:noalloc
func (c OpCtx) Trace() *Trace { return c.trace }

// WithTrace returns a copy of the context recording spans into t, at top
// level (no active parent span).
//
//nephele:noalloc
func (c OpCtx) WithTrace(t *Trace) OpCtx {
	c.trace = t
	c.span = 0
	return c
}

// SpanID returns the active span's ID within the attached trace (0 when
// none is active).
//
//nephele:noalloc
func (c OpCtx) SpanID() int32 { return c.span }

// WithFaults returns a copy of the context whose fault scope is r. The
// scope overrides component fault registries wherever the pipeline
// consults Faults.
//
//nephele:noalloc
func (c OpCtx) WithFaults(r *fault.Registry) OpCtx {
	c.faults = r
	return c
}

// Faults resolves the fault registry for this operation: the context's
// scope when one is set, otherwise the component's own registry (which may
// itself be nil — fault.Registry methods are nil-safe).
//
//nephele:noalloc
func (c OpCtx) Faults(fallback *fault.Registry) *fault.Registry {
	if c.faults != nil {
		return c.faults
	}
	return fallback
}

// StartSpan opens a span named name under the context's active span,
// stamped with the meter's current virtual time, and returns a derived
// context whose active span is the new one (so further StartSpan calls
// nest) plus the span handle to End. With no trace attached it returns the
// context unchanged and a zero Span whose End is a no-op — the disabled
// path performs no allocation.
//
//nephele:noalloc
func (c OpCtx) StartSpan(name string) (OpCtx, Span) {
	if c.trace == nil {
		return c, Span{}
	}
	s := c.trace.start(name, c.span, c.meter)
	c.span = s.id
	return c, s
}

// Detach returns a context for a background section: a fresh meter
// charging against the same cost table and, when tracing, a private
// sub-trace whose spans the caller later merges with Trace.Absorb at a
// deterministic point. The
// returned *Trace is nil when the parent context records no spans; passing
// a nil sub-trace to Absorb is a no-op, so callers need not branch.
func (c OpCtx) Detach() (OpCtx, *Trace) {
	d := OpCtx{meter: vclock.NewMeter(c.meter.Costs()), faults: c.faults}
	if c.trace == nil {
		return d, nil
	}
	sub := NewTrace()
	d.trace = sub
	return d, sub
}
