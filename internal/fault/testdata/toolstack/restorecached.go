// Package toolstack is the fixture's production code consulting the
// registry.
package toolstack

import "nephele/internal/fault"

func named(r *fault.Registry) error {
	for _, p := range []string{fault.PointGood, fault.PointProbe, fault.PointUnlisted, fault.PointDupA, fault.PointDupB} {
		if err := r.Check(p); err != nil {
			return err
		}
	}
	return nil
}

// A point threaded through a variable is not a raw literal.
func variable(r *fault.Registry, p string) error { return r.Check(p) }

func raw(r *fault.Registry) error {
	// The drift test pins this call's line.
	return r.Check("fixture/raw")
}
