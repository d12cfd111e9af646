// Package a is TestOpCtxThreading's fixture for rule B: a func that holds
// an OpCtx threads it and mints no fresh meter, trace or context. Each
// "// want" comment names the finding on its line.
package a

import (
	o "nephele/internal/obs"
	"nephele/internal/vclock"
)

// op holds an OpCtx, so every constructor below is a violation.
func op(ctx o.OpCtx) {
	_ = o.Ctx(nil)           // want obs.Ctx
	_ = o.NewTrace()         // want obs.NewTrace
	_ = vclock.NewMeter(nil) // want vclock.NewMeter
	_ = o.OpCtx{}            // want literal
	_ = ctx.WithMeter(nil)   // derives from ctx: legal
	_ = ctx.EnsureMeter(nil) // so does this
}

// opPtr takes the context by pointer; still an operation.
func opPtr(ctx *o.OpCtx) {
	_ = o.Ctx(nil) // want obs.Ctx
}

// opClosure: a closure inside an operation is part of it.
func opClosure(ctx o.OpCtx) {
	f := func() *vclock.Meter {
		return vclock.NewMeter(nil) // want vclock.NewMeter
	}
	_ = f
}

// litOp holds no OpCtx, but the literal inside it takes one, and so does
// everything nested in that literal.
func litOp() {
	h := func(ctx o.OpCtx) {
		_ = o.NewTrace() // want obs.NewTrace
		inner := func() {
			_ = vclock.NewMeter(nil) // want vclock.NewMeter
		}
		inner()
	}
	h(o.OpCtx{})
}

// litOpVar is a package-level literal holding an OpCtx parameter.
var litOpVar = func(ctx *o.OpCtx) {
	_ = o.Ctx(nil) // want obs.Ctx
}

// meterFirst has no OpCtx parameter: adapting its meter is legal.
func meterFirst(meter *vclock.Meter) {
	op(o.Ctx(meter))
}

// plain has no OpCtx at all; nothing fires.
func plain() {
	_ = vclock.NewMeter(nil)
	_ = o.NewTrace()
}
