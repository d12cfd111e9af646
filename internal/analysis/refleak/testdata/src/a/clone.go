package a

// CloneLeak returns the second acquire's error without undoing the first.
func CloneLeak(m *Memory) error {
	err := m.AllocN(4)
	if err != nil {
		return err // the acquire's own failure: nothing to release
	}
	if err := m.ShareN(2); err != nil {
		return err // want `unreleased AllocN`
	}
	return nil
}

// CloneRollback releases before the error return.
func CloneRollback(m *Memory) error {
	err := m.AllocN(4)
	if err != nil {
		return err
	}
	if err := m.ShareN(2); err != nil {
		m.ReleaseN(4)
		return err
	}
	return nil
}

// CloneDeferred uses the cloneOne-style deferred unwind, which covers
// every return path.
func CloneDeferred(m *Memory) (err error) {
	defer func() {
		if err != nil {
			m.ReleaseN(4)
		}
	}()
	err = m.AllocN(4)
	if err != nil {
		return err
	}
	return m.ShareN(2)
}

// CloneClosure funnels error exits through a rollback closure, the
// Space.CloneOpMode fail() pattern.
func CloneClosure(m *Memory) error {
	err := m.AllocN(4)
	if err != nil {
		return err
	}
	fail := func(e error) error {
		m.ReleaseN(4)
		return e
	}
	if err := m.ShareN(2); err != nil {
		return fail(err)
	}
	return nil
}

// CloneWaived leaks deliberately: the caller tears the whole domain down
// on error, which releases everything.
func CloneWaived(m *Memory) error {
	err := m.AllocN(4)
	if err != nil {
		return err
	}
	if err := m.ShareN(2); err != nil {
		return err //nephele:refleak-ok — caller destroys the domain on error
	}
	return nil
}

// CloneTeardown destroys the half-built domain, which releases everything
// it acquired.
func CloneTeardown(m *Memory, c *Conn) error {
	err := m.AllocN(4)
	if err != nil {
		return err
	}
	if err := m.ShareN(2); err != nil {
		c.DomainDestroy(7)
		return err
	}
	return nil
}

// CloneTeardownMisnamed calls a teardown the table does not know.
func CloneTeardownMisnamed(m *Memory, c *Conn) error {
	err := m.AllocN(4)
	if err != nil {
		return err
	}
	if err := m.ShareN(2); err != nil {
		c.Teardown(7)
		return err // want `unreleased AllocN`
	}
	return nil
}
