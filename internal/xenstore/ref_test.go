package xenstore

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"

	"nephele/internal/vclock"
)

// refStore is the reference model for the node table: the store as a tree
// of heap nodes whose children sit in a map, and which sorts names where it
// lists them. It serves the same requests with the same path checks, errors,
// node count and request accounting: each request is charged on its own
// meter, counted and access-logged before anything else, as the node count
// stood before it.
type refStore struct {
	root  *refNode
	nodes int

	meter                 *vclock.Meter
	stats                 Stats
	logLines, rotateEvery int
}

type refNode struct {
	value    string
	children map[string]*refNode
}

func newRefStore(rotateEvery int) *refStore {
	return &refStore{root: &refNode{}, meter: vclock.NewMeter(nil), rotateEvery: rotateEvery}
}

// charge accounts one request.
func (s *refStore) charge(isWrite bool) {
	costs := s.meter.Costs()
	s.stats.Requests++
	s.meter.Charge(costs.StoreRequest, 1)
	s.meter.Charge(costs.StorePerNode, s.nodes)
	if !isWrite {
		return
	}
	s.stats.Writes++
	if s.rotateEvery == 0 {
		return
	}
	if s.logLines++; s.logLines == s.rotateEvery {
		s.logLines = 0
		s.stats.LogRotations++
		s.meter.Charge(costs.StoreLogRot, 1)
	}
}

func (s *refStore) find(elems string) *refNode {
	n := s.root
	for elem := ""; elems != "" && n != nil; {
		elem, elems, _ = strings.Cut(elems, "/")
		n = n.children[elem]
	}
	return n
}

func (s *refStore) lookup(path string) (*refNode, error) {
	elems, err := pathElems(path)
	if err != nil {
		return nil, err
	}
	n := s.find(elems)
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return n, nil
}

func (s *refStore) mkdir(elems string) *refNode {
	n := s.root
	for elem := ""; elems != ""; {
		elem, elems, _ = strings.Cut(elems, "/")
		n = s.child(n, elem)
	}
	return n
}

func (s *refStore) child(n *refNode, name string) *refNode {
	c := n.children[name]
	if c == nil {
		c = &refNode{}
		if n.children == nil {
			n.children = map[string]*refNode{}
		}
		n.children[name] = c
		s.nodes++
	}
	return c
}

func (s *refStore) Write(path, value string) error {
	s.charge(true)
	elems, err := pathElems(path)
	if err != nil {
		return err
	}
	s.mkdir(elems).value = value
	return nil
}

func (s *refStore) Read(path string) (string, error) {
	s.charge(false)
	n, err := s.lookup(path)
	if err != nil {
		return "", err
	}
	return n.value, nil
}

func (s *refStore) Directory(path string) ([]string, error) {
	s.charge(false)
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	return sortedNames(n), nil
}

func sortedNames(n *refNode) []string {
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *refStore) Remove(path string) error {
	s.charge(true)
	elems, err := pathElems(path)
	if err != nil {
		return err
	}
	if elems == "" {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	dir, name := "", elems
	if cut := strings.LastIndexByte(elems, '/'); cut >= 0 {
		dir, name = elems[:cut], elems[cut+1:]
	}
	var child *refNode
	parent := s.find(dir)
	if parent != nil {
		child = parent.children[name]
	}
	if child == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	s.nodes -= refCount(child)
	delete(parent.children, name)
	return nil
}

func refCount(n *refNode) int {
	total := 1
	for _, c := range n.children {
		total += refCount(c)
	}
	return total
}

func (s *refStore) Exists(path string) bool {
	s.charge(false)
	elems, err := pathElems(path)
	return err == nil && s.find(elems) != nil
}

func (s *refStore) Clone(parentDom, childDom uint32, op CloneOp, parentPath, childPath string) error {
	s.charge(true)
	s.stats.CloneReqs++
	srcElems, err := pathElems(parentPath)
	if err != nil {
		return err
	}
	src := s.find(srcElems)
	if src == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, parentPath)
	}
	dstElems, err := pathElems(childPath)
	if err != nil {
		return err
	}
	if within(srcElems, dstElems) || within(dstElems, srcElems) {
		return fmt.Errorf("%w: clone of %s onto overlapping %s", ErrBadPath, parentPath, childPath)
	}
	dst := s.mkdir(dstElems)
	dst.value = src.value
	rw := rewriter{parent: fmt.Sprint(parentDom), child: fmt.Sprint(childDom), op: op}
	s.copy(dst, src, &rw)
	return nil
}

func (s *refStore) copy(dst, src *refNode, rw *rewriter) {
	for name, sc := range src.children {
		dc := s.child(dst, name)
		dc.value = rw.value(name, sc.value)
		s.copy(dc, sc, rw)
	}
}

func (s *refStore) Snapshot(root string) ([]Pair, error) {
	s.charge(false)
	n, err := s.lookup(root)
	if err != nil {
		return nil, err
	}
	var out []Pair
	var rec func(n *refNode, rel string)
	rec = func(n *refNode, rel string) {
		out = append(out, Pair{Path: rel, Value: n.value})
		for _, name := range sortedNames(n) {
			child := name
			if rel != "" {
				child = rel + "/" + name
			}
			rec(n.children[name], child)
		}
	}
	rec(n, "")
	return out, nil
}

// dirKey is the path a Dir on dir gives key: dir/key, or the refusal of a
// key that is not one path element.
func dirKey(dir, key string) (string, error) {
	if key == "" || strings.Contains(key, "/") {
		return "", fmt.Errorf("%w: key %q", ErrBadPath, key)
	}
	if dir == "/" {
		return "/" + key, nil
	}
	return dir + "/" + key, nil
}

// DirWrite is Dir(dir).Write(key, value): Write of dir/key, a bad key
// refused once the request is charged.
func (s *refStore) DirWrite(dir, key, value string) error {
	p, err := dirKey(dir, key)
	if err != nil {
		s.charge(true)
		return err
	}
	return s.Write(p, value)
}

// DirRead is Dir(dir).Read(key): Read of dir/key, a bad key refused once
// the request is charged.
func (s *refStore) DirRead(dir, key string) (string, error) {
	p, err := dirKey(dir, key)
	if err != nil {
		s.charge(false)
		return "", err
	}
	return s.Read(p)
}

// DirClone is Dir(dir).Clone(...): Clone onto dir/key. A bad key is
// refused where Clone refuses a malformed destination, once the request is
// charged and its source found, so it goes in as the malformed path "".
func (s *refStore) DirClone(parentDom, childDom uint32, op CloneOp, parentPath, dir, key string) error {
	p, err := dirKey(dir, key)
	if err != nil {
		p = ""
	}
	return s.Clone(parentDom, childDom, op, parentPath, p)
}

// DirRemove is Dir(dir).Remove(key): Remove of dir/key, a bad key refused
// once the request is charged.
func (s *refStore) DirRemove(dir, key string) error {
	p, err := dirKey(dir, key)
	if err != nil {
		s.charge(true)
		return err
	}
	return s.Remove(p)
}

// Walk returns every node under the root as "path=value", in sorted order.
func (s *refStore) Walk() []string {
	var out []string
	var rec func(n *refNode, path string)
	rec = func(n *refNode, path string) {
		out = append(out, path+"="+n.value)
		for _, name := range sortedNames(n) {
			child := path + "/" + name
			if path == "/" {
				child = "/" + name
			}
			rec(n.children[name], child)
		}
	}
	rec(s.root, "/")
	return out
}

// walkAll returns every node of s as "path=value", in Walk order.
func walkAll(s *Store) []string {
	var out []string
	s.Walk("/", func(p, v string) { out = append(out, p+"="+v) })
	return out
}

// Paths the op fuzzer draws from: short names, so removes hit what writes
// made and clones land on and under each other, plus the malformed ones.
var (
	opElems    = [...]string{"a", "b", "c", "1", "2"}
	opBadPaths = [...]string{"", "/", "a", "/a/", "/a//b"}
)

// opPath returns a path of one to three elements, or one of opBadPaths.
func (in *fuzzInput) opPath() string {
	b := in.next()
	if b%16 == 15 {
		return opBadPaths[in.next()%len(opBadPaths)]
	}
	p := ""
	for d := b%3 + 1; d > 0; d-- {
		p += "/" + opElems[in.next()%len(opElems)]
	}
	return p
}

// opBadKeys are the keys a Dir refuses: none is exactly one path element.
var opBadKeys = [...]string{"", "a/b", "/a", "a/"}

// opKey returns one of opElems, or one of opBadKeys.
func (in *fuzzInput) opKey() string {
	if b := in.next(); b%8 != 7 {
		return opElems[b%len(opElems)]
	}
	return opBadKeys[in.next()%len(opBadKeys)]
}

// sameErr reports whether a and b are both nil, or match the same one of
// the store's errors.
func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, e := range []error{ErrNotFound, ErrBadPath} {
		if errors.Is(a, e) != errors.Is(b, e) {
			return false
		}
	}
	return true
}

// opHandle is one Dir the op fuzzer keeps across steps, with its path.
type opHandle struct {
	path string
	dir  Dir
}

// opRotateEvery is the access-log rotation period of the fuzzed stores:
// short, so sequences rotate the log.
const opRotateEvery = 5

// checkStoreOps decodes data into a sequence of requests, runs each on a
// Store and on the reference model, and fails t at the first request whose
// result, error, Stats, meter total, node count or whole-tree walk differs.
// Four Dir handles live across steps: a step opens one on a path, writes,
// reads, clones onto or removes a key through it, or removes its
// directory, an ancestor or a sibling, so later requests go through handles whose node was freed, and
// perhaps handed to another path, or that never found one.
func checkStoreOps(t *testing.T, data []byte) {
	t.Helper()
	in := fuzzInput(data)
	s, ref := New(opRotateEvery), newRefStore(opRotateEvery)
	meter := vclock.NewMeter(nil)
	var handles [4]*opHandle
	for step := 0; len(in) > 0 && step < 256; step++ {
		var desc string
		var err, want error
		switch in.next() % 13 {
		case 0:
			p, v := in.opPath(), fuzzVals[in.next()%len(fuzzVals)]
			desc = fmt.Sprintf("Write(%q, %q)", p, v)
			err, want = s.Write(p, v, meter), ref.Write(p, v)
		case 1:
			p := in.opPath()
			desc = fmt.Sprintf("Read(%q)", p)
			var got, exp string
			got, err = s.Read(p, meter)
			exp, want = ref.Read(p)
			if got != exp {
				t.Fatalf("step %d: %s = %q, reference %q", step, desc, got, exp)
			}
		case 2:
			p := in.opPath()
			desc = fmt.Sprintf("Remove(%q)", p)
			err, want = s.Remove(p, meter), ref.Remove(p)
		case 3:
			parent, child := uint32(in.next()%3+1), uint32(in.next()%3+1)
			op := CloneOp(in.next() % 5)
			src, dst := in.opPath(), in.opPath()
			desc = fmt.Sprintf("Clone(%d, %d, %v, %q, %q)", parent, child, op, src, dst)
			err, want = s.Clone(parent, child, op, src, dst, meter), ref.Clone(parent, child, op, src, dst)
		case 4:
			p := in.opPath()
			desc = fmt.Sprintf("Directory(%q)", p)
			var got, exp []string
			got, err = s.Directory(p, meter)
			exp, want = ref.Directory(p)
			if !slices.Equal(got, exp) {
				t.Fatalf("step %d: %s = %q, reference %q", step, desc, got, exp)
			}
		case 5:
			p := in.opPath()
			desc = fmt.Sprintf("Exists(%q)", p)
			if got, exp := s.Exists(p, meter), ref.Exists(p); got != exp {
				t.Fatalf("step %d: %s = %v, reference %v", step, desc, got, exp)
			}
		case 6:
			p := in.opPath()
			desc = fmt.Sprintf("Snapshot(%q)", p)
			var got, exp []Pair
			got, err = s.Snapshot(p, meter)
			exp, want = ref.Snapshot(p)
			if !slices.Equal(got, exp) {
				t.Fatalf("step %d: %s = %v, reference %v", step, desc, got, exp)
			}
		case 7:
			// Open handle k on a path; a malformed one leaves slot k empty.
			k, p := in.next()%len(handles), in.opPath()
			desc = fmt.Sprintf("handle %d = Dir(%q)", k, p)
			var d Dir
			d, err = s.Dir(p)
			_, want = pathElems(p)
			handles[k] = nil
			if err == nil {
				handles[k] = &opHandle{p, d}
			}
		case 8:
			k, key, v := in.next()%len(handles), in.opKey(), fuzzVals[in.next()%len(fuzzVals)]
			h := handles[k]
			if h == nil {
				continue
			}
			desc = fmt.Sprintf("Dir(%q).Write(%q, %q)", h.path, key, v)
			err, want = h.dir.Write(key, v, meter), ref.DirWrite(h.path, key, v)
		case 9:
			k, key := in.next()%len(handles), in.opKey()
			h := handles[k]
			if h == nil {
				continue
			}
			desc = fmt.Sprintf("Dir(%q).Read(%q)", h.path, key)
			var got, exp string
			got, err = h.dir.Read(key, meter)
			exp, want = ref.DirRead(h.path, key)
			if got != exp {
				t.Fatalf("step %d: %s = %q, reference %q", step, desc, got, exp)
			}
		case 10:
			// Remove handle k's directory (0), its parent (1) or a
			// sibling (2): the root's parent is the root, and its
			// siblings are the top-level names.
			k, how, elem := in.next()%len(handles), in.next()%3, opElems[in.next()%len(opElems)]
			h := handles[k]
			if h == nil {
				continue
			}
			p := h.path
			switch how {
			case 1:
				p = path.Dir(p)
			case 2:
				p = path.Join(path.Dir(p), elem)
			}
			desc = fmt.Sprintf("Remove(%q), handle %d on %q", p, k, h.path)
			err, want = s.Remove(p, meter), ref.Remove(p)
		case 11:
			// xs_clone onto a key of handle k: the source may be the
			// handle's directory, lie above or below it, or be elsewhere.
			k, key := in.next()%len(handles), in.opKey()
			parent, child := uint32(in.next()%3+1), uint32(in.next()%3+1)
			op, src := CloneOp(in.next()%5), in.opPath()
			h := handles[k]
			if h == nil {
				continue
			}
			desc = fmt.Sprintf("Dir(%q).Clone(%d, %d, %v, %q, %q)", h.path, parent, child, op, src, key)
			err = h.dir.Clone(fmt.Sprint(parent), fmt.Sprint(child), op, src, key, meter)
			want = ref.DirClone(parent, child, op, src, h.path, key)
		case 12:
			k, key := in.next()%len(handles), in.opKey()
			h := handles[k]
			if h == nil {
				continue
			}
			desc = fmt.Sprintf("Dir(%q).Remove(%q)", h.path, key)
			err, want = h.dir.Remove(key, meter), ref.DirRemove(h.path, key)
		}
		if !sameErr(err, want) {
			t.Fatalf("step %d: %s: %v, reference %v", step, desc, err, want)
		}
		if got, exp := s.Stats(), ref.stats; got != exp {
			t.Fatalf("step %d: after %s Stats = %+v, reference %+v", step, desc, got, exp)
		}
		if got, exp := meter.Elapsed(), ref.meter.Elapsed(); got != exp {
			t.Fatalf("step %d: after %s the meter holds %v, reference %v", step, desc, got, exp)
		}
		if got, exp := s.NodeCount(), ref.nodes; got != exp {
			t.Fatalf("step %d: after %s NodeCount = %d, reference %d", step, desc, got, exp)
		}
		if got, exp := walkAll(s), ref.Walk(); !slices.Equal(got, exp) {
			t.Fatalf("step %d: after %s the tree is\n%q\nreference\n%q", step, desc, got, exp)
		}
	}
}

// FuzzStoreOps checks the node table against the reference model over
// sequences of Write, Read, Remove, Clone, Directory, Exists and Snapshot
// on a small path alphabet, so subtrees are removed and made again and the
// table hands freed indices out again, and of Write, Read, Clone and
// Remove through Dir handles kept across those removals.
//
//	go test -run XXX -fuzz FuzzStoreOps -fuzztime 10s ./internal/xenstore
func FuzzStoreOps(f *testing.F) {
	// Write /a/b/c, remove /a, write /a/b/c and /a/c again.
	f.Add([]byte{0, 2, 0, 1, 2, 1, 2, 0, 0, 0, 2, 0, 1, 2, 3, 0, 1, 0, 2, 0})
	// Write /a/1 and /a/2/b, clone /a onto /b/c with CloneDevVif, remove
	// /b, clone it again, list /b/c.
	f.Add([]byte{0, 1, 0, 3, 4, 0, 2, 0, 4, 1, 4,
		3, 0, 2, 2, 0, 0, 1, 1, 2,
		2, 0, 1,
		3, 0, 2, 2, 0, 0, 1, 1, 2,
		4, 1, 1, 2})
	// A malformed path on every request: Write "", Read "/", Remove "/",
	// Directory "/a/", Exists "a", Snapshot "/a//b", then Write /a and
	// clone it onto "/a/".
	f.Add([]byte{0, 15, 0, 1, 1, 15, 1, 2, 15, 1, 4, 15, 3, 5, 15, 2, 6, 15, 4,
		0, 0, 0, 1, 3, 0, 1, 2, 0, 0, 15, 3})
	// A stale handle whose node another path took: handle 0 on /a/b
	// writes c, /a is removed (its parent), /c/1/2 takes the freed
	// slots, then handle 0 writes c and reads it back, which must make
	// /a/b/c again and leave /c/1/2 alone.
	f.Add([]byte{7, 0, 1, 0, 1,
		8, 0, 2, 3,
		10, 0, 1, 0,
		0, 2, 2, 3, 4, 4,
		8, 0, 2, 1,
		9, 0, 2})
	// A handle whose directory is removed (itself), then read through
	// (not found, and still no node), written through (made again),
	// left valid by a sibling's removal, and read once more.
	f.Add([]byte{7, 1, 1, 1, 0,
		8, 1, 1, 3,
		0, 1, 1, 3, 2,
		10, 1, 0, 0,
		9, 1, 1,
		8, 1, 0, 2,
		10, 1, 2, 3,
		9, 1, 0})
	// Handles on the root and on a path that is never written: a bad key
	// through each, a read of an absent directory, then a write that
	// makes it, and a removal of the root through the handle (refused).
	f.Add([]byte{7, 2, 15, 1, 7, 3, 0, 4,
		8, 2, 7, 1, 3,
		9, 3, 7, 0,
		9, 3, 2,
		8, 3, 2, 3,
		10, 2, 0, 0})
	// Handle-relative clones: handle 0 on /a writes b, handle 1 on /b
	// (absent) clones /a onto c, which makes /b/c; handle 0 clones /a
	// onto its own key b, and handle 1 clones /b/c onto c (both
	// overlapping, refused), handle 0 clones with a bad key (refused
	// once /a is found); /b is removed and handle 1, stale, clones /a
	// onto c again.
	f.Add([]byte{7, 0, 0, 0,
		8, 0, 1, 3,
		7, 1, 0, 1,
		11, 1, 2, 0, 1, 2, 0, 0,
		11, 0, 1, 0, 0, 0, 0, 0,
		11, 1, 2, 0, 0, 0, 1, 1, 2,
		11, 0, 7, 0, 0, 0, 1, 0, 0,
		10, 1, 0, 0,
		11, 1, 2, 0, 1, 2, 0, 0})
	// Removals through handles: handle 0 on /a writes b and c, removes b
	// (found), b again (not found) and a bad key (refused); handle 1 on
	// /a/c removes a key the leaf /a/c does not have; handle 0 removes c,
	// leaving handle 1 stale; handle 1 writes b, which makes /a/c/b, and
	// removes it; /a is removed and handle 0 removes c from its absent
	// directory.
	f.Add([]byte{7, 0, 0, 0,
		8, 0, 1, 3,
		8, 0, 2, 2,
		12, 0, 1,
		12, 0, 1,
		12, 0, 7, 0,
		7, 1, 1, 0, 2,
		12, 1, 0,
		12, 0, 2,
		8, 1, 1, 3,
		12, 1, 1,
		10, 0, 0, 0,
		12, 0, 2})
	f.Fuzz(checkStoreOps)
}

// TestStoreMatchesReference runs checkStoreOps over fixed-seed random
// sequences, so the comparison covers more than the fuzz corpus without
// the fuzzer.
func TestStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		checkStoreOps(t, data)
	}
}
