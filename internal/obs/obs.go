// Package obs is the observability layer of the clone pipeline: spans
// recording virtual (and wall) time per pipeline phase, a registry of
// counters/gauges/histograms, and the OpCtx value that threads both —
// together with the operation's vclock.Meter — through the hypervisor first stage and the xencloned second stage.
//
// Two invariants shape the design:
//
//  1. A disabled sink costs nothing. OpCtx is a small by-value struct; with
//     no trace attached StartSpan returns the zero Span and every method is
//     a no-op — the clone hot path allocates exactly as much as it did
//     before the layer existed.
//  2. Span emission is deterministic under virtual time. Spans carry
//     virtual timestamps read from the operation's meter, and every span is
//     recorded by the operation whose meter it reads — a lazy clone's
//     deferred pages are drained on the waiter's context, not in the
//     background — so golden tests can pin span names, counts and virtual
//     timestamps.
//     Wall-clock readings are recorded alongside but never order anything.
package obs

import "nephele/internal/vclock"

// OpCtx carries the per-operation state the clone pipeline used to thread
// as a bare *vclock.Meter parameter: the meter itself and the active span
// of an attached trace. It is passed by value; deriving methods
// (WithMeter, StartSpan, ...) return a modified copy.
//
// The zero value is a valid disabled context: no meter (callees skip
// charging, exactly as with a nil meter before) and no trace (spans are
// no-ops).
type OpCtx struct {
	meter *vclock.Meter
	trace *Trace
	span  int32 // active span ID in trace; 0 = top level
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
