// Package xenstore simulates the Xenstore daemon: a hierarchical key-value
// store used as the device registry of the virtualization platform, with a
// request access log whose rotation produces the latency spikes visible in
// the paper's Fig. 4, and the new xs_clone request (§5.2.1) that clones a
// whole device directory server-side, rewriting only the keys and values
// that embed domain IDs. The toolstack drives device backends directly, so
// the store has no watches; nor does it model transactions or permissions.
//
// Request accounting matters: the paper's boot-vs-clone gap is largely the
// number of Xenstore requests each path issues. Every public operation
// counts as one request and charges StoreRequest plus a per-node surcharge
// proportional to the store size, which yields the linear growth of
// instantiation times with the number of instances.
package xenstore

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"nephele/internal/fault"
	"nephele/internal/vclock"
)

// Errors.
var (
	ErrNotFound = errors.New("xenstore: node not found")
	ErrBadPath  = errors.New("xenstore: bad path")
)

// CloneOp selects the xs_clone heuristic (paper Fig. 3).
type CloneOp int

const (
	// CloneBasic performs a plain in-depth directory copy.
	CloneBasic CloneOp = iota
	// CloneDevConsole adapts console device entries.
	CloneDevConsole
	// CloneDevVif adapts network device entries.
	CloneDevVif
	// CloneDev9pfs adapts 9pfs device entries.
	CloneDev9pfs
	// CloneDevVbd adapts block device entries (the §5.3 extension).
	CloneDevVbd
)

func (op CloneOp) String() string {
	switch op {
	case CloneBasic:
		return "basic"
	case CloneDevConsole:
		return "dev-console"
	case CloneDevVif:
		return "dev-vif"
	case CloneDev9pfs:
		return "dev-9pfs"
	case CloneDevVbd:
		return "dev-vbd"
	default:
		return fmt.Sprintf("CloneOp(%d)", int(op))
	}
}

// node is one entry of the store's node table. kids lists the indices of
// its children sorted by name, so a lookup binary-searches it and a listing
// reads it in order. A leaf's kids is empty. A freed node keeps its kids
// until alloc hands its index out: they are the free nodes below it.
type node struct {
	name, value string
	kids        []int32
}

// The node table grows in chunks that never move, so a *node stays valid
// while the table grows under it: 16, 32, 64 and 128 nodes, then chunks of
// 256. Node i sits in the chunk picked by the top bit of i+firstChunk while
// that is below fixedChunk, and by its high bits above.
const (
	firstChunkShift = 4
	firstChunk      = 1 << firstChunkShift
	fixedChunkShift = 8
	fixedChunk      = 1 << fixedChunkShift
	// smallChunks is the number of chunks before the first fixed one.
	smallChunks = fixedChunkShift - firstChunkShift
)

// locate returns the chunk holding node i and its offset in that chunk.
func locate(i int32) (chunk, off int) {
	j := uint32(i) + firstChunk
	if j < fixedChunk {
		top := bits.Len32(j) - 1
		return top - firstChunkShift, int(j - 1<<top)
	}
	return int(j>>fixedChunkShift) - 1 + smallChunks, int(j & (fixedChunk - 1))
}

// chunkLen returns the number of nodes chunk c holds.
func chunkLen(c int) int {
	if c < smallChunks {
		return firstChunk << c
	}
	return fixedChunk
}

// Stats counts the traffic served by the store.
type Stats struct {
	Requests     int // total requests served
	Writes       int // write requests (the access-logged kind)
	CloneReqs    int // xs_clone requests served
	LogRotations int // access log rotations performed
}

// Store is the Xenstore daemon state.
type Store struct {
	chunks [][]node // the node table; node 0 is the root
	used   int32    // table slots handed out, freed ones included
	// free holds the roots of the freed subtrees, reused last freed first;
	// the rest of a freed subtree hangs off its root's kids.
	free  []int32
	nodes int // live nodes, the root not counted
	// removals counts the Remove requests that freed nodes: a Dir keeps
	// the node it found only while this has not moved.
	removals uint64

	// Access logging: every logged request appends one line; when the
	// log exceeds rotateEvery lines it is rotated, stalling the store —
	// the spikes of Fig. 4. Disabled when rotateEvery is 0.
	logLines    int
	rotateEvery int

	// faults is the optional fault-injection registry consulted by the
	// write and xs_clone request handlers; nil never fires.
	faults *fault.Registry

	stats Stats
}

// New creates an empty store with access-log rotation every rotateEvery
// logged requests (0 disables logging).
func New(rotateEvery int) *Store {
	s := &Store{rotateEvery: rotateEvery}
	s.alloc("")
	return s
}

// at returns node i of the table.
func (s *Store) at(i int32) *node {
	c, off := locate(i)
	return &s.chunks[c][off]
}

// alloc takes a table slot for a node called name, a freed one if
// there is one, and returns its index. A freed slot's children go on the
// free list, last to first, so a freed subtree is handed back in preorder:
// the order a sorted rewrite of the same subtree asks for its nodes, each
// with the kids array it had.
func (s *Store) alloc(name string) int32 {
	var i int32
	if k := len(s.free) - 1; k >= 0 {
		i = s.free[k]
		s.free = s.free[:k]
		n := s.at(i)
		for j := len(n.kids) - 1; j >= 0; j-- {
			s.free = append(s.free, n.kids[j])
		}
		n.kids = n.kids[:0]
	} else {
		i = s.used
		s.used++
		if c, _ := locate(i); c == len(s.chunks) {
			s.chunks = append(s.chunks, make([]node, chunkLen(c)))
		}
	}
	s.at(i).name = name
	return i
}

// clearTree clears the names and values of node i and its descendants and
// counts them.
func (s *Store) clearTree(i int32) int {
	n := s.at(i)
	n.name, n.value = "", ""
	freed := 1
	for _, k := range n.kids {
		freed += s.clearTree(k)
	}
	return freed
}

// search returns where name sits, or would sit, among n's kids and
// whether it is there. It stops at the first probe that finds name: most
// lookups are hits. The operators, unlike strings.Compare, let name stay
// on the caller's stack.
func (s *Store) search(n *node, name string) (int, bool) {
	lo, hi := 0, len(n.kids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch k := s.at(n.kids[m]).name; {
		case k == name:
			return m, true
		case k < name:
			lo = m + 1
		default:
			hi = m
		}
	}
	return lo, false
}

// SetFaults installs a fault-injection registry on the write and xs_clone
// request paths (tests); a nil registry disables injection.
func (s *Store) SetFaults(r *fault.Registry) {
	s.faults = r
}

// Stats returns a copy of the traffic counters.
func (s *Store) Stats() Stats {
	return s.stats
}

// NodeCount reports the number of nodes in the tree.
func (s *Store) NodeCount() int {
	return s.nodes
}

// pathElems validates path — absolute, no empty element — and returns its
// elements as one slash-separated string ("" for the root) for strings.Cut
// to walk, so no request builds a []string of them. Its error holds a
// copy of path, so path does not escape through it.
func pathElems(path string) (string, error) {
	if path == "/" {
		return "", nil
	}
	if path == "" || path[0] != '/' || path[len(path)-1] == '/' || strings.Contains(path, "//") {
		return "", fmt.Errorf("%w: %q", ErrBadPath, strings.Clone(path))
	}
	return path[1:], nil
}

// chargeRequest accounts one request: the base cost plus the store-size
// surcharge, plus access logging with rotation stalls for writes.
func (s *Store) chargeRequest(meter *vclock.Meter, isWrite bool) {
	s.stats.Requests++
	if isWrite {
		s.stats.Writes++
	}
	meter.Charge(meter.Costs().StoreRequest, 1)
	meter.Charge(meter.Costs().StorePerNode, s.nodes)
	if isWrite && s.rotateEvery > 0 {
		s.logLines++
		if s.logLines >= s.rotateEvery {
			s.logLines = 0
			s.stats.LogRotations++
			meter.Charge(meter.Costs().StoreLogRot, 1)
		}
	}
}

// find returns the node a pathElems string names below n, nil if there is
// none.
func (s *Store) find(n *node, elems string) *node {
	for elem := ""; elems != ""; {
		elem, elems, _ = strings.Cut(elems, "/")
		k, ok := s.search(n, elem)
		if !ok {
			return nil
		}
		n = s.at(n.kids[k])
	}
	return n
}

// lookup returns the node at path, or ErrBadPath / ErrNotFound.
func (s *Store) lookup(path string) (*node, error) {
	elems, err := pathElems(path)
	if err != nil {
		return nil, err
	}
	n := s.find(s.at(0), elems)
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return n, nil
}

// mkdir returns the node a pathElems string names below n, creating
// it and any missing ancestors (mkdir -p semantics, like xenstored).
func (s *Store) mkdir(n *node, elems string) *node {
	for elem := ""; elems != ""; {
		elem, elems, _ = strings.Cut(elems, "/")
		n = s.child(n, elem)
	}
	return n
}

// child returns n's child called name, creating it if absent. n stays
// valid: the table's chunks never move.
func (s *Store) child(n *node, name string) *node {
	k, ok := s.search(n, name)
	if !ok {
		n.kids = slices.Insert(n.kids, k, s.alloc(name))
		s.nodes++
	}
	return s.at(n.kids[k])
}

// Write stores value at path, one request. An injected fault fails the
// request before it reaches the tree.
func (s *Store) Write(path, value string, meter *vclock.Meter) error {
	elems, err := pathElems(path)
	return s.write(nil, elems, err, value, meter)
}

// Read returns the value at path, one request.
func (s *Store) Read(path string, meter *vclock.Meter) (string, error) {
	elems, err := pathElems(path)
	return s.read(nil, elems, err, meter)
}

// Dir is a handle on one directory of the store for a caller that issues
// several requests under it. Its Write and Read of a key are Store.Write
// and Store.Read of path/key — the same request, charge, fault point and
// access log — but walk from the directory's node, not from the root. The
// handle finds that node on its first request (a write creates it, mkdir
// -p, as Store.Write would, so every charge sees the node count it always
// did), and finds it again only after a Remove has freed nodes, since a
// freed node may since have been handed to another path.
type Dir struct {
	s        *Store
	elems    string // the directory's path, in pathElems form
	n        *node  // the directory's node; nil until a request finds it
	removals uint64 // s.removals when n was found
}

// Dir checks that path is a well-formed directory path and returns a
// handle on it. It is not a request and creates nothing.
func (s *Store) Dir(path string) (Dir, error) {
	elems, err := pathElems(path)
	if err != nil {
		return Dir{}, err
	}
	return Dir{s: s, elems: elems}, nil
}

// Path returns the directory's path.
func (d *Dir) Path() string { return "/" + d.elems }

// Write stores value at key, one path element below the directory: one
// request, Store.Write of path/key.
func (d *Dir) Write(key, value string, meter *vclock.Meter) error {
	return d.s.write(d, key, checkKey(key), value, meter)
}

// Read returns the value at key, one path element below the directory:
// one request, Store.Read of path/key.
func (d *Dir) Read(key string, meter *vclock.Meter) (string, error) {
	return d.s.read(d, key, checkKey(key), meter)
}

// Remove deletes the subtree at key, one path element below the
// directory: one request, Store.Remove of path/key. Like Store.Remove it
// keeps no part of key, so a caller may format key on its stack.
func (d *Dir) Remove(key string, meter *vclock.Meter) error {
	s := d.s
	s.chargeRequest(meter, true)
	if err := checkKey(key); err != nil {
		return err
	}
	if !s.unlink(s.dirNode(d, false), key) {
		return fmt.Errorf("%w: %s", ErrNotFound, d.join(key))
	}
	return nil
}

// join returns the path of key below the directory.
func (d *Dir) join(key string) string {
	if d.elems == "" {
		return "/" + key
	}
	return "/" + d.elems + "/" + key
}

// checkKey refuses a key that is not exactly one path element. Its error
// holds a copy of key, so key does not escape through it.
func checkKey(key string) error {
	if key == "" || strings.IndexByte(key, '/') >= 0 {
		return fmt.Errorf("%w: key %q", ErrBadPath, strings.Clone(key))
	}
	return nil
}

// write is the one write request: value goes to the node elems names
// below d's directory, or below the root for a nil d. bad is the path
// check's verdict, which fails the request once it is charged.
func (s *Store) write(d *Dir, elems string, bad error, value string, meter *vclock.Meter) error {
	if err := s.faults.Check(fault.PointXSWrite); err != nil {
		return err
	}
	s.chargeRequest(meter, true)
	if bad != nil {
		return bad
	}
	s.mkdir(s.dirNode(d, true), elems).value = value
	return nil
}

// read is the one read request, walking as write does.
func (s *Store) read(d *Dir, elems string, bad error, meter *vclock.Meter) (string, error) {
	s.chargeRequest(meter, false)
	if bad != nil {
		return "", bad
	}
	var n *node
	if dir := s.dirNode(d, false); dir != nil {
		n = s.find(dir, elems)
	}
	if n == nil {
		if d != nil {
			return "", fmt.Errorf("%w: %s", ErrNotFound, d.join(elems))
		}
		return "", fmt.Errorf("%w: /%s", ErrNotFound, elems)
	}
	return n.value, nil
}

// dirNode returns the node of d's directory, the root for a nil d. When
// d has no node yet, or a Remove has freed nodes since it found the one it
// has, it walks from the root: creating the directory and its missing
// ancestors if create is set, and returning nil where it is absent if not.
func (s *Store) dirNode(d *Dir, create bool) *node {
	if d == nil {
		return s.at(0)
	}
	if d.n == nil || d.removals != s.removals {
		if create {
			d.n = s.mkdir(s.at(0), d.elems)
		} else {
			d.n = s.find(s.at(0), d.elems)
		}
		d.removals = s.removals
	}
	return d.n
}

// Directory lists the child names at path, sorted, one request.
func (s *Store) Directory(path string, meter *vclock.Meter) ([]string, error) {
	s.chargeRequest(meter, false)
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(n.kids))
	for k, i := range n.kids {
		out[k] = s.at(i).name
	}
	return out, nil
}

// Remove deletes the subtree at path, one request. It keeps no part of
// path, not even in its error, so a caller may format path on its stack.
func (s *Store) Remove(path string, meter *vclock.Meter) error {
	s.chargeRequest(meter, true)
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
	if !s.unlink(s.find(s.at(0), dir), name) {
		return fmt.Errorf("%w: %s", ErrNotFound, strings.Clone(path))
	}
	return nil
}

// unlink frees parent's child called name and its subtree, and reports
// whether there was one; a nil parent has none. Only the child goes on
// the free list: its descendants stay linked below it, names and values
// cleared, until alloc reaches them.
func (s *Store) unlink(parent *node, name string) bool {
	if parent == nil {
		return false
	}
	k, ok := s.search(parent, name)
	if !ok {
		return false
	}
	i := parent.kids[k]
	s.free = append(s.free, i)
	s.nodes -= s.clearTree(i)
	s.removals++
	parent.kids = slices.Delete(parent.kids, k, k+1)
	return true
}

// Exists reports whether path is present (one request).
func (s *Store) Exists(path string, meter *vclock.Meter) bool {
	s.chargeRequest(meter, false)
	elems, err := pathElems(path)
	return err == nil && s.find(s.at(0), elems) != nil
}

// WalkFunc visits path/value pairs during Walk.
type WalkFunc func(path, value string)

// Walk visits every node under path in sorted order (not counted as a
// request; used by tests and tooling).
func (s *Store) Walk(path string, fn WalkFunc) error {
	n, err := s.lookup(path)
	if err != nil {
		return err
	}
	s.walk(n, strings.TrimRight(path, "/"), fn)
	return nil
}

func (s *Store) walk(n *node, path string, fn WalkFunc) {
	if path == "" {
		path = "/"
	}
	fn(path, n.value)
	for _, i := range n.kids {
		c := s.at(i)
		child := path + "/" + c.name
		if path == "/" {
			child = "/" + c.name
		}
		s.walk(c, child, fn)
	}
}
