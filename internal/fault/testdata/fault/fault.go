// Package fault is the drift test's fixture registry: a miniature of
// internal/fault with one violation of each kind seeded in. It is parsed,
// never compiled.
package fault

// Registry mimics the real registry's Check entry point.
type Registry struct{}

// Check mimics (*fault.Registry).Check.
func (r *Registry) Check(point string) error { return nil }

const (
	// PointGood is declared, listed, consulted and tested.
	PointGood = "fixture/good"
	// PointProbe is listed and consulted, but only the drift test's own
	// file names its list: the coverage leg must not count that file.
	PointProbe = "fixture/probe"
	// PointUnlisted drifted out of every list.
	PointUnlisted = "fixture/unlisted"
	// PointDupA and PointDupB spell the same literal two ways.
	PointDupA = "fixture/dup"
	PointDupB = `fixture/dup`
	// PointUnused is listed and tested, but nothing checks it.
	PointUnused = "fixture/unused"
	// notAPoint is lower-case and ignored.
	notAPoint = "fixture/ignored"
)

// CachePoints mirrors the real list the probe was added to.
func CachePoints() []string {
	return []string{PointGood, PointProbe}
}

// OtherPoints holds the rest, and one entry that names no point.
func OtherPoints() []string {
	return []string{PointDupA, PointDupB, PointUnused, PointGhost}
}
