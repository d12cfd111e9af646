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
	"sort"
	"strings"
	"sync"

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

// node is one entry of the tree. children is nil until the first child is
// added: most nodes are leaves, and reading, ranging over or deleting from a
// nil map does what an empty one does.
type node struct {
	value    string
	children map[string]*node
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
	mu    sync.Mutex
	root  *node
	nodes int

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
	return &Store{
		root:        &node{},
		rotateEvery: rotateEvery,
	}
}

// SetFaults installs a fault-injection registry on the write and xs_clone
// request paths (tests); a nil registry disables injection.
func (s *Store) SetFaults(r *fault.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = r
}

// faultCheck evaluates a store fault point without holding the lock
// ordering hostage (the registry has its own lock).
func (s *Store) faultCheck(point string) error {
	s.mu.Lock()
	r := s.faults
	s.mu.Unlock()
	return r.Check(point)
}

// Stats returns a copy of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NodeCount reports the number of nodes in the tree.
func (s *Store) NodeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes
}

// pathElems validates path — absolute, no empty element — and returns its
// elements as one slash-separated string ("" for the root) for strings.Cut
// to walk, so no request builds a []string of them.
func pathElems(path string) (string, error) {
	if path == "/" {
		return "", nil
	}
	if path == "" || path[0] != '/' || path[len(path)-1] == '/' || strings.Contains(path, "//") {
		return "", fmt.Errorf("%w: %q", ErrBadPath, path)
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

// find returns the node a pathElems string names, nil if there is none.
func (s *Store) find(elems string) *node {
	n := s.root
	for elem := ""; elems != "" && n != nil; {
		elem, elems, _ = strings.Cut(elems, "/")
		n = n.children[elem]
	}
	return n
}

// lookup returns the node at path, or ErrBadPath / ErrNotFound.
func (s *Store) lookup(path string) (*node, error) {
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

// mkdirLocked returns the node a pathElems string names, creating it and
// any missing ancestors (mkdir -p semantics, like xenstored).
func (s *Store) mkdirLocked(elems string) *node {
	n := s.root
	for elem := ""; elems != ""; {
		elem, elems, _ = strings.Cut(elems, "/")
		n = s.childLocked(n, elem, 0)
	}
	return n
}

// childLocked returns n's child called name, creating it if absent. A new
// child map is made with room for hint entries.
func (s *Store) childLocked(n *node, name string, hint int) *node {
	c := n.children[name]
	if c == nil {
		c = &node{}
		if n.children == nil {
			n.children = make(map[string]*node, hint)
		}
		n.children[name] = c
		s.nodes++
	}
	return c
}

// Write stores value at path, one request. An injected fault fails the
// request before it reaches the tree.
func (s *Store) Write(path, value string, meter *vclock.Meter) error {
	if err := s.faultCheck(fault.PointXSWrite); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeRequest(meter, true)
	elems, err := pathElems(path)
	if err != nil {
		return err
	}
	s.mkdirLocked(elems).value = value
	return nil
}

// Read returns the value at path, one request.
func (s *Store) Read(path string, meter *vclock.Meter) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeRequest(meter, false)
	n, err := s.lookup(path)
	if err != nil {
		return "", err
	}
	return n.value, nil
}

// Directory lists the child names at path, sorted, one request.
func (s *Store) Directory(path string, meter *vclock.Meter) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeRequest(meter, false)
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes the subtree at path, one request.
func (s *Store) Remove(path string, meter *vclock.Meter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	var child *node
	parent := s.find(dir)
	if parent != nil {
		child = parent.children[name]
	}
	if child == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	s.nodes -= countNodes(child)
	delete(parent.children, name)
	return nil
}

func countNodes(n *node) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

// Exists reports whether path is present (one request).
func (s *Store) Exists(path string, meter *vclock.Meter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeRequest(meter, false)
	elems, err := pathElems(path)
	return err == nil && s.find(elems) != nil
}

// WalkFunc visits path/value pairs during Walk.
type WalkFunc func(path, value string)

// Walk visits every node under path in sorted order (not counted as a
// request; used by tests and tooling).
func (s *Store) Walk(path string, fn WalkFunc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return err
	}
	walk(n, strings.TrimRight(path, "/"), fn)
	return nil
}

func walk(n *node, path string, fn WalkFunc) {
	if path == "" {
		path = "/"
	}
	fn(path, n.value)
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		child := path + "/" + name
		if path == "/" {
			child = "/" + name
		}
		walk(n.children[name], child, fn)
	}
}
