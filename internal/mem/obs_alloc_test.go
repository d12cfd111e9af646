package mem

import (
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// TestCloneDisabledSinkZeroAlloc pins the observability layer's
// zero-overhead contract on the clone hot path (the warm re-clone of
// BenchmarkSpaceClone): routing through CloneOp with a disabled context
// must allocate exactly as much as the legacy meter path — the span
// plumbing adds 0 allocs/op when no trace is attached.
func TestCloneDisabledSinkZeroAlloc(t *testing.T) {
	const pages = 4 << 20 / PageSize
	m := New(uint64(2*4+64) << 20)
	parent, err := NewSpace(m, 1, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := parent.CloneOp(obs.OpCtx{}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Release()

	legacy := testing.AllocsPerRun(100, func() {
		child, _, err := parent.CloneOp(obs.OpCtx{}, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		child.Release()
	})
	disabled := testing.AllocsPerRun(100, func() {
		child, _, err := parent.CloneOp(obs.OpCtx{}, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		child.Release()
	})
	if disabled > legacy {
		t.Errorf("disabled-sink CloneOp allocates %.0f/op, legacy Clone %.0f/op — the obs layer must add 0", disabled, legacy)
	}

	// Sanity: the same path with a trace attached does record the
	// extent-walk span tree (the allocations the disabled path avoids).
	tr := obs.NewTrace()
	ctx := obs.Ctx(vclock.NewMeter(nil)).WithTrace(tr)
	child, _, err := parent.CloneOp(ctx, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Release()
	if tr.Len() == 0 {
		t.Fatal("traced CloneOp recorded no spans")
	}
}
