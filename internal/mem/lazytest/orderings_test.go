package lazytest

import (
	"fmt"
	"math/rand"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/mem"
)

// TestLazyOrderings replays, seed by seed, one ordering of accesses against
// the drain of a lazy child, beside its eager twin: a random prefix of the
// scenario's workload runs before the drain, the drain either completes or
// stops at a random chunk (fault.FailNth armed on the clone's registry), and
// the rest of the workload runs after it. Every access must agree with the
// eager twin and leave both pools audit-clean; both spaces must be
// byte-equal after each phase; teardown must return every frame; and when
// the drain completed, the lazy clone, workload and stream meters must sum
// exactly to the eager clone and workload meters. With NEPHELE_LAZY_SEEDS
// set it replays that list instead of the default sweep.
func TestLazyOrderings(t *testing.T) {
	seeds := envSeeds(t)
	if seeds == nil {
		n := 60
		if testing.Short() {
			n = 20
		}
		for seed := int64(1); seed <= int64(n); seed++ {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := runOrdering(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// runOrdering runs one seed's ordering and returns the first violated
// invariant.
func runOrdering(seed int64) error {
	sc := NewScenario(seed)
	r := rand.New(rand.NewSource(^seed))
	prefix := r.Intn(len(sc.ops) + 1)
	failAt := 0 // the drain chunk that fails; 0 lets the drain complete
	if r.Intn(2) == 0 {
		failAt = 1 + r.Intn(4)
	}

	eager, err := sc.build(mem.CloneEager)
	if err != nil {
		return err
	}
	lazy, err := sc.build(mem.CloneLazy)
	if err != nil {
		return err
	}
	step := func(what string, ops []wop) error {
		for i := range ops {
			if err := applyOps(eager, lazy, ops[i:i+1]); err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			if err := audited(eager, lazy); err != nil {
				return fmt.Errorf("%s op %d: %w", what, i, err)
			}
		}
		if err := snapshotsEqual(what+" child", eager.child, lazy.child); err != nil {
			return err
		}
		return snapshotsEqual(what+" parent", eager.parent, lazy.parent)
	}

	if err := step("prefix", sc.ops[:prefix]); err != nil {
		return err
	}
	if failAt > 0 {
		lazy.faults.Inject(fault.PointMemStreamExtent, fault.FailNth(failAt), fault.Fatal)
	}
	derr := lazy.drain()
	drained := derr == nil
	ss := lazy.child.StreamStats()
	switch {
	case drained && failAt > 0 && ss.StreamedExtents >= failAt:
		return fmt.Errorf("drain ran %d chunks past an armed failure at chunk %d", ss.StreamedExtents, failAt)
	case !drained && (failAt == 0 || !fault.IsFault(derr)):
		return fmt.Errorf("Drain = %v with failure armed at chunk %d", derr, failAt)
	case !drained && ss.StreamedExtents != failAt-1:
		return fmt.Errorf("drain failing at chunk %d processed %d chunks", failAt, ss.StreamedExtents)
	case ss.DemandPages != sc.demandTouched(sc.ops[:prefix]):
		return fmt.Errorf("DemandPages %d, want %d distinct deferred pages touched", ss.DemandPages, sc.demandTouched(sc.ops[:prefix]))
	}
	if drained {
		if err := sc.check(eager, lazy, sc.ops[:prefix]); err != nil {
			return fmt.Errorf("after drain: %w", err)
		}
	} else if err := audited(eager, lazy); err != nil {
		return fmt.Errorf("after failed drain: %w", err)
	}

	if err := step("suffix", sc.ops[prefix:]); err != nil {
		return err
	}
	if drained {
		if err := metersAddUp(eager, lazy); err != nil {
			return err
		}
	}
	total := sc.frames()
	if err := lazy.release(total); err != nil {
		return err
	}
	return eager.release(total)
}
