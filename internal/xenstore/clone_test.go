package xenstore

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
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
	// deep copy produce identical child subtrees under the same heuristic
	// and add the same number of nodes — the StorePerNode charge of every
	// later request. The destination is fresh, has missing ancestors, or
	// already holds part of the copy.
	dsts := [...]string{"/local/domain/7/device/vif", "/x/y/vif", "/c"}
	f := func(keys []uint8, vals []uint8, which uint8, pre []uint8) bool {
		dst := dsts[int(which)%len(dsts)]
		build := func() *Store {
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
				s.Write(path, v, nil)
			}
			for _, k := range pre {
				path := dst + "/0"
				for d := 0; d < int(k%3); d++ {
					path += "/" + string(rune('a'+(int(k)+d)%6))
				}
				s.Write(path, "old", nil)
			}
			return s
		}
		sc, sd := build(), build()
		before := sc.NodeCount()
		if sc.Clone(3, 7, CloneDevVif, "/local/domain/3/device/vif", dst, nil) != nil {
			return false
		}
		if deepCopy(sd, 3, 7, CloneDevVif, "/local/domain/3/device/vif", dst) != nil {
			return false
		}
		return sc.NodeCount()-before == sd.NodeCount()-before && maps.Equal(subtree(sc, "/"), subtree(sd, "/"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
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

func TestCloneKeepsNestedDomIDKeys(t *testing.T) {
	// Device indices are keys too: the parent's vif 1 stays vif 1 in the
	// child even when the parent's domid is 1.
	s := New(0)
	for _, i := range []int{0, 1} {
		idx := strconv.Itoa(i)
		s.Write("/local/domain/1/device/vif/"+idx+"/backend", "/local/domain/0/backend/vif/1/"+idx, nil)
		s.Write("/local/domain/0/backend/vif/1/"+idx+"/frontend", "/local/domain/1/device/vif/"+idx, nil)
	}
	for _, dir := range [][2]string{
		{"/local/domain/1/device/vif", "/local/domain/9/device/vif"},
		{"/local/domain/0/backend/vif/1", "/local/domain/0/backend/vif/9"},
	} {
		if err := s.Clone(1, 9, CloneDevVif, dir[0], dir[1], nil); err != nil {
			t.Fatal(err)
		}
		got, err := s.Directory(dir[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []string{"0", "1"}) {
			t.Fatalf("%s holds vifs %v, want [0 1]", dir[1], got)
		}
	}
	// Peer paths get the child's domid in the owner's element only.
	be, _ := s.Read("/local/domain/9/device/vif/1/backend", nil)
	fe, _ := s.Read("/local/domain/0/backend/vif/9/1/frontend", nil)
	if be != "/local/domain/0/backend/vif/9/1" || fe != "/local/domain/9/device/vif/1" {
		t.Fatalf("peer paths = %q, %q", be, fe)
	}
}

func TestCloneIsDeterministic(t *testing.T) {
	// A nested key equal to the child's domid is copied, not overwritten by
	// the one equal to the parent's, whatever the map order.
	for i := 0; i < 50; i++ {
		s := New(0)
		s.Write("/p/3/v", "from3", nil)
		s.Write("/p/7/v", "from7", nil)
		if err := s.Clone(3, 7, CloneBasic, "/p", "/c", nil); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"3", "7"} {
			if got, _ := s.Read("/c/"+id+"/v", nil); got != "from"+id {
				t.Fatalf("/c/%s/v = %q, want from%s", id, got, id)
			}
		}
	}
}

func TestCloneRefusesOverlap(t *testing.T) {
	s := New(0)
	s.Write("/a/b/c", "x", nil)
	nodes := s.NodeCount()
	for _, pr := range [][2]string{{"/a", "/a/b"}, {"/a/b", "/a"}, {"/a", "/a"}, {"/", "/z"}, {"/a", "/"}} {
		if err := s.Clone(3, 7, CloneBasic, pr[0], pr[1], nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Clone(%s, %s) = %v, want ErrBadPath", pr[0], pr[1], err)
		}
	}
	if s.NodeCount() != nodes || s.Exists("/z", nil) {
		t.Fatalf("refused clones changed the tree: %d nodes, want %d", s.NodeCount(), nodes)
	}
	// Sharing a name prefix is not overlap.
	if err := s.Clone(3, 7, CloneBasic, "/a/b", "/a/bc", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read("/a/bc/c", nil); got != "x" {
		t.Fatalf("/a/bc/c = %q, want x", got)
	}
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

// fuzzInput decodes fuzzer bytes into small store paths and values; it
// reads zeros once exhausted.
type fuzzInput []byte

// Elements include domids and the keys the device heuristics rewrite, so
// small inputs reach nested domid keys, rewritten values and overlaps.
var (
	fuzzElems = [...]string{"1", "2", "3", "dev", "state", "frontend", "backend-id"}
	fuzzVals  = [...]string{"", "1", "2", "x", "/local/domain/1/device/vif/2", "/local/domain/0/backend/vif/1/1"}
)

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// path returns an absolute path of one to three elements.
func (in *fuzzInput) path() string {
	p := ""
	for d := in.next()%3 + 1; d > 0; d-- {
		p += "/" + fuzzElems[in.next()%len(fuzzElems)]
	}
	return p
}

// FuzzClone checks xs_clone against the deep copy it stands for: on a tree,
// a parent/child domid pair, a CloneOp and a source and destination decoded
// from the input, Clone leaves the same tree and node count as Snapshot +
// RewriteForClone + one Write per node, a second clone of the same tree is
// identical, and a refused clone leaves the tree untouched.
func FuzzClone(f *testing.F) {
	// Parent 1 cloned to 3 with CloneDevVif, /1 onto /3 over a tree holding
	// /1/1/frontend (nested parent domid key, rewritten value) and /1/2.
	f.Add([]byte{1, 3, 2, 0, 0, 1, 2, 5, 4, 4, 1, 0, 1, 0, 0, 1, 2, 0})
	// /dev onto /dev/1: overlapping, refused.
	f.Add([]byte{1, 2, 0, 0, 3, 1, 3, 0, 0, 1, 3, 3, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		parent, child := uint32(in.next()%4), uint32(in.next()%4)
		op := CloneOp(in.next() % 5)
		src, dst := in.path(), in.path()
		build := func() *Store {
			s := New(0)
			tree := in
			for w := 0; len(tree) > 0 && w < 64; w++ {
				p := tree.path()
				s.Write(p, fuzzVals[tree.next()%len(fuzzVals)], nil)
			}
			return s
		}
		want := build()
		sa := build()
		err := sa.Clone(parent, child, op, src, dst, nil)
		overlap := src == dst || strings.HasPrefix(dst, src+"/") || strings.HasPrefix(src, dst+"/")
		switch {
		case overlap || !want.Exists(src, nil):
			if err == nil {
				t.Fatalf("Clone(%s, %s) succeeded; overlap %v", src, dst, overlap)
			}
			if !maps.Equal(subtree(sa, "/"), subtree(want, "/")) || sa.NodeCount() != want.NodeCount() {
				t.Fatalf("refused Clone(%s, %s) changed the tree", src, dst)
			}
			return
		case err != nil:
			t.Fatalf("Clone(%s, %s): %v", src, dst, err)
		}
		if err := deepCopy(want, parent, child, op, src, dst); err != nil {
			t.Fatal(err)
		}
		if got, exp := subtree(sa, "/"), subtree(want, "/"); !maps.Equal(got, exp) {
			t.Fatalf("Clone(%d, %d, %v, %s, %s) tree\n%v\ndeep copy\n%v", parent, child, op, src, dst, got, exp)
		}
		if sa.NodeCount() != want.NodeCount() {
			t.Fatalf("Clone left %d nodes, deep copy %d", sa.NodeCount(), want.NodeCount())
		}
		sb := build()
		if err := sb.Clone(parent, child, op, src, dst, nil); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(subtree(sb, "/"), subtree(sa, "/")) {
			t.Fatal("two clones of the same tree differ")
		}
	})
}
