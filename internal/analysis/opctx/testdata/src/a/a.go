// Package a is the opctx fixture: operations that hold an OpCtx and must
// thread it rather than minting fresh observability state.
package a

import (
	"nephele/internal/analysis/opctx/testdata/src/obs"
	"nephele/internal/analysis/opctx/testdata/src/vclock"
)

// op holds an OpCtx, so every constructor below is a violation.
func op(ctx obs.OpCtx) {
	_ = obs.Ctx(nil)          // want `obs\.Ctx mints a fresh OpCtx inside an operation`
	_ = obs.NewTrace()        // want `obs\.NewTrace inside an operation forks the trace`
	_ = vclock.NewMeter(nil)  // want `vclock\.NewMeter inside an operation forks virtual time`
	_ = obs.OpCtx{}           // want `bare OpCtx literal inside an operation`
	_, _ = ctx.Detach()       // sanctioned sub-context
	_ = ctx.WithMeter(nil)    // sanctioned derivation
}

// opPtr takes the context by pointer; still an operation.
func opPtr(ctx *obs.OpCtx) {
	_ = obs.Ctx(nil) // want `obs\.Ctx mints a fresh OpCtx inside an operation`
}

// closure violations inside an operation still count.
func opClosure(ctx obs.OpCtx) {
	f := func() *vclock.Meter {
		return vclock.NewMeter(nil) // want `vclock\.NewMeter inside an operation forks virtual time`
	}
	_ = f
}

// litOp holds no OpCtx itself, but the function literal inside it takes
// one: the literal's body is an operation and must thread its ctx.
func litOp() {
	h := func(ctx obs.OpCtx) {
		_ = obs.NewTrace() // want `obs\.NewTrace inside an operation forks the trace`
		inner := func() {
			_ = vclock.NewMeter(nil) // want `vclock\.NewMeter inside an operation forks virtual time`
		}
		inner()
	}
	h(obs.OpCtx{})
}

// litOpVar is a package-level literal holding an OpCtx parameter.
var litOpVar = func(ctx *obs.OpCtx) {
	_ = obs.Ctx(nil) // want `obs\.Ctx mints a fresh OpCtx inside an operation`
}

// waived keeps a justified escape hatch.
func waived(ctx obs.OpCtx) {
	_ = vclock.NewMeter(nil) //nephele:opctx-ok fixture: throwaway diagnostic meter
}

// meterFirst has no OpCtx parameter: adapting its meter into a context
// stays legal.
func meterFirst(meter *vclock.Meter) {
	ctx := obs.Ctx(meter)
	op(ctx)
}

// plain has no OpCtx at all; nothing fires.
func plain() {
	_ = vclock.NewMeter(nil)
	_ = obs.NewTrace()
}
