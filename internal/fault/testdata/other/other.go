// Package other does not import the fault package, so its Check is not
// the registry's.
package other

type checker struct{}

func (checker) Check(s string) error { return nil }

func unrelated(c checker) error { return c.Check("not/a/fault/point") }
