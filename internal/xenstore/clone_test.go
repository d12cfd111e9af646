package xenstore

import (
	"testing"
	"testing/quick"

	"nephele/internal/vclock"
)

// populateVif creates a realistic vif front/back entry pair for domain 3
// device 0, the way xl does on boot.
func populateVif(s *Store) {
	s.Write("/local/domain/3/device/vif/0/backend", "/local/domain/0/backend/vif/3/0", nil)
	s.Write("/local/domain/3/device/vif/0/backend-id", "0", nil)
	s.Write("/local/domain/3/device/vif/0/state", "4", nil)
	s.Write("/local/domain/3/device/vif/0/mac", "00:16:3e:00:00:01", nil)
	s.Write("/local/domain/0/backend/vif/3/0/frontend", "/local/domain/3/device/vif/0", nil)
	s.Write("/local/domain/0/backend/vif/3/0/frontend-id", "3", nil)
	s.Write("/local/domain/0/backend/vif/3/0/state", "4", nil)
	s.Write("/local/domain/0/backend/vif/3/0/mac", "00:16:3e:00:00:01", nil)
}

func TestCloneRewritesBackendKeys(t *testing.T) {
	s := New(0)
	populateVif(s)
	// Clone the backend directory for child domain 7. The "3" path
	// element (parent ID) must become "7".
	err := s.Clone(3, 7, CloneDevVif, "/local/domain/0/backend/vif/3", "/local/domain/0/backend/vif/7", vclock.NewMeter(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("/local/domain/0/backend/vif/7/0/frontend-id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "7" {
		t.Fatalf("frontend-id = %q, want 7", got)
	}
	fe, _ := s.Read("/local/domain/0/backend/vif/7/0/frontend", nil)
	if fe != "/local/domain/7/device/vif/0" {
		t.Fatalf("frontend path = %q", fe)
	}
	// MAC is identical by design (§5.2.1: same MAC and IP).
	mac, _ := s.Read("/local/domain/0/backend/vif/7/0/mac", nil)
	if mac != "00:16:3e:00:00:01" {
		t.Fatalf("mac = %q", mac)
	}
	// State forced to Connected.
	st, _ := s.Read("/local/domain/0/backend/vif/7/0/state", nil)
	if st != "4" {
		t.Fatalf("state = %q, want 4", st)
	}
}

func TestCloneFrontendDirectory(t *testing.T) {
	s := New(0)
	populateVif(s)
	err := s.Clone(3, 7, CloneDevVif, "/local/domain/3/device/vif", "/local/domain/7/device/vif", nil)
	if err != nil {
		t.Fatal(err)
	}
	be, err := s.Read("/local/domain/7/device/vif/0/backend", nil)
	if err != nil {
		t.Fatal(err)
	}
	if be != "/local/domain/0/backend/vif/7/0" {
		t.Fatalf("backend path = %q", be)
	}
}

func TestCloneBasicDoesNotRewrite(t *testing.T) {
	s := New(0)
	s.Write("/local/domain/3/data/x", "3", nil)
	if err := s.Clone(3, 7, CloneBasic, "/local/domain/3/data", "/local/domain/7/data", nil); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read("/local/domain/7/data/x", nil)
	if got != "3" {
		t.Fatalf("basic clone rewrote value: %q", got)
	}
}

func TestCloneIsOneRequest(t *testing.T) {
	s := New(0)
	populateVif(s)
	before := s.Stats().Requests
	if err := s.Clone(3, 7, CloneDevVif, "/local/domain/0/backend/vif/3", "/local/domain/0/backend/vif/7", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Requests - before; got != 1 {
		t.Fatalf("xs_clone issued %d requests, want 1", got)
	}
	if s.Stats().CloneReqs != 1 {
		t.Fatalf("CloneReqs = %d, want 1", s.Stats().CloneReqs)
	}
}

// deepCopy is the client-side deep copy the Fig. 4 ablation runs in
// xencloned: one Snapshot of the parent directory, then one Write per node
// with the xs_clone heuristics applied by RewriteForClone.
func deepCopy(s *Store, parentDom, childDom uint32, op CloneOp, src, dst string) error {
	pairs, err := s.Snapshot(src, nil)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		rel, val := RewriteForClone(parentDom, childDom, op, pr.Path, pr.Value)
		path := dst
		if rel != "" {
			path += "/" + rel
		}
		if err := s.Write(path, val, nil); err != nil {
			return err
		}
	}
	return nil
}

// subtree returns the nodes under root keyed by their path relative to it.
func subtree(s *Store, root string) map[string]string {
	m := map[string]string{}
	s.Walk(root, func(p, v string) { m[p[len(root):]] = v })
	return m
}

// sameTree fails t unless the subtrees at a and b hold the same nodes.
func sameTree(t *testing.T, s *Store, a, b string) {
	t.Helper()
	ta, tb := subtree(s, a), subtree(s, b)
	if len(ta) != len(tb) {
		t.Fatalf("trees differ in size: %d vs %d", len(ta), len(tb))
	}
	for k, v := range ta {
		if tb[k] != v {
			t.Fatalf("trees differ at %q: %q vs %q", k, v, tb[k])
		}
	}
}

func TestDeepCopyAndCloneProduceSameTree(t *testing.T) {
	// The frontend directory: its backend path value embeds the parent ID.
	s := New(0)
	populateVif(s)
	src := "/local/domain/3/device/vif"
	if err := s.Clone(3, 7, CloneDevVif, src, "/clone", nil); err != nil {
		t.Fatal(err)
	}
	if err := deepCopy(s, 3, 7, CloneDevVif, src, "/deep"); err != nil {
		t.Fatal(err)
	}
	sameTree(t, s, "/clone", "/deep")
}

func TestCloneAndDeepCopyEquivalentProperty(t *testing.T) {
	// Property: on arbitrary device trees, xs_clone and the client-side
	// deep copy produce identical child subtrees under the same
	// heuristic.
	f := func(keys []uint8, vals []uint8) bool {
		s := New(0)
		s.Write("/local/domain/3/device/vif/0/state", "4", nil)
		for i := range keys {
			depth := int(keys[i]%3) + 1
			path := "/local/domain/3/device/vif/0"
			for d := 0; d < depth; d++ {
				path += "/" + string(rune('a'+(int(keys[i])+d)%6))
			}
			v := "3"
			if i < len(vals) && vals[i]%2 == 0 {
				v = string(rune('0' + vals[i]%10))
			}
			if s.Write(path, v, nil) != nil {
				return false
			}
		}
		if s.Clone(3, 7, CloneDevVif, "/local/domain/3/device/vif", "/c1", nil) != nil {
			return false
		}
		if deepCopy(s, 3, 7, CloneDevVif, "/local/domain/3/device/vif", "/c2") != nil {
			return false
		}
		a, b := subtree(s, "/c1"), subtree(s, "/c2")
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRewriteMatchesServerClone(t *testing.T) {
	// The backend directory: its key is the parent ID and its frontend-id
	// and state values are rewritten.
	s := New(0)
	populateVif(s)
	src := "/local/domain/0/backend/vif/3"
	if err := s.Clone(3, 7, CloneDevVif, src, "/srv", nil); err != nil {
		t.Fatal(err)
	}
	if err := deepCopy(s, 3, 7, CloneDevVif, src, "/cli"); err != nil {
		t.Fatal(err)
	}
	sameTree(t, s, "/srv", "/cli")
}

func TestSnapshotMissingRoot(t *testing.T) {
	s := New(0)
	if _, err := s.Snapshot("/nope", nil); err == nil {
		t.Fatal("snapshot of missing root succeeded")
	}
}

func TestCloneMissingSource(t *testing.T) {
	s := New(0)
	if err := s.Clone(3, 7, CloneBasic, "/nope", "/child", nil); err == nil {
		t.Fatal("clone of missing path succeeded")
	}
}

func TestCloneOpString(t *testing.T) {
	for _, op := range []CloneOp{CloneBasic, CloneDevConsole, CloneDevVif, CloneDev9pfs, CloneOp(42)} {
		if op.String() == "" {
			t.Errorf("CloneOp(%d) empty string", int(op))
		}
	}
}
