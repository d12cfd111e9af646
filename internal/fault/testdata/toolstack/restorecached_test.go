package toolstack

import (
	"testing"

	"nephele/internal/fault"
)

func TestPoints(t *testing.T) {
	r := &fault.Registry{}
	_ = r.Check(fault.PointGood)
	_ = r.Check(fault.PointUnlisted)
	_ = fault.OtherPoints()
	// A raw literal in a test is not a finding.
	_ = r.Check("fixture/test-only")
}
