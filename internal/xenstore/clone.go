package xenstore

import (
	"sort"
	"strconv"
	"strings"

	"nephele/internal/fault"
	"nephele/internal/vclock"
)

// Clone implements the xs_clone request (paper Fig. 2 and 3): it copies
// the directory at parentPath to childPath in one server-side request,
// rewriting keys and values that reference the parent domain ID to
// reference the child, with per-device-type heuristics selected by op.
//
// The whole point of xs_clone is request economy: a deep copy from the
// client issues one write per node, whereas xs_clone is one request no
// matter how many nodes the device directory holds. The paper's Fig. 4
// ablates exactly this (clone vs "clone + XS deep copy").
func (s *Store) Clone(parentDom, childDom uint32, op CloneOp, parentPath, childPath string, meter *vclock.Meter) error {
	if err := s.faultCheck(fault.PointXSClone); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeRequest(meter, true)
	s.stats.CloneReqs++

	src, err := s.lookup(parentPath)
	if err != nil {
		return err
	}
	if _, err := pathElems(childPath); err != nil {
		return err
	}
	rw := rewriter{parent: parentDom, child: childDom, op: op}
	s.cloneSubtree(src, childPath, &rw)
	s.fireWatchesLocked(childPath)
	return nil
}

// DeepCopy is the client-side alternative to Clone used by the ablation:
// it walks the parent directory with Directory/Read requests and issues
// one Write request per node, exactly how the entries would be created on
// regular instantiation. Domain-ID rewriting still happens (the clone
// would not function otherwise); only the request economy differs.
func (s *Store) DeepCopy(parentDom, childDom uint32, op CloneOp, parentPath, childPath string, meter *vclock.Meter) error {
	type pending struct{ src, dst string }
	queue := []pending{{parentPath, childPath}}
	rw := rewriter{parent: parentDom, child: childDom, op: op}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		val, err := s.Read(p.src, meter)
		if err != nil {
			return err
		}
		if err := s.Write(p.dst, rw.value(lastElem(p.src), val), meter); err != nil {
			return err
		}
		names, err := s.Directory(p.src, meter)
		if err != nil {
			return err
		}
		for _, name := range names {
			queue = append(queue, pending{p.src + "/" + name, p.dst + "/" + rw.key(name)})
		}
	}
	return nil
}

// Pair is one (path, value) node of a snapshot; paths are relative to the
// snapshot root ("" for the root itself).
type Pair struct {
	Path  string
	Value string
}

// Snapshot reads a whole subtree in one request (xencloned caches these so
// repeated deep copies of the same parent do not re-read the store).
func (s *Store) Snapshot(root string, meter *vclock.Meter) ([]Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeRequest(meter, false)
	n, err := s.lookup(root)
	if err != nil {
		return nil, err
	}
	var out []Pair
	var rec func(n *node, rel string)
	rec = func(n *node, rel string) {
		out = append(out, Pair{Path: rel, Value: n.value})
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
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

// RewriteForClone applies the xs_clone key/value heuristics to one node of
// a parent snapshot, returning the child's relative path and value. It is
// exported so xencloned's deep-copy ablation produces the same tree as
// xs_clone while issuing one Write per node.
func RewriteForClone(parentDom, childDom uint32, op CloneOp, relPath, value string) (string, string) {
	rw := rewriter{parent: parentDom, child: childDom, op: op}
	if relPath == "" {
		return "", value
	}
	parts := strings.Split(relPath, "/")
	for i, p := range parts {
		parts[i] = rw.key(p)
	}
	out := strings.Join(parts, "/")
	return out, rw.value(parts[len(parts)-1], value)
}

func lastElem(path string) string {
	i := strings.LastIndexByte(path, '/')
	return path[i+1:]
}

// cloneSubtree copies src into dstPath applying the rewriter; runs under
// the store lock and counts as part of the single xs_clone request.
func (s *Store) cloneSubtree(src *node, dstPath string, rw *rewriter) {
	_ = s.writeLocked(dstPath, rw.value(lastElem(dstPath), src.value))
	for name, child := range src.children {
		s.cloneSubtree(child, dstPath+"/"+rw.key(name), rw)
	}
}

// rewriter adapts keys and values that embed domain IDs. Backend and
// frontend device entries are identified by keys referencing the owning
// guest ID; those (and values referencing them) must be rewritten to the
// new clone ID (§5.2.1).
type rewriter struct {
	parent, child uint32
	op            CloneOp
}

// key rewrites a path element equal to the parent domain ID.
func (rw *rewriter) key(name string) string {
	if name == strconv.FormatUint(uint64(rw.parent), 10) {
		return strconv.FormatUint(uint64(rw.child), 10)
	}
	return name
}

// value rewrites node values depending on the heuristic. The device
// heuristics rewrite domain-ID references inside frontend/backend paths and
// the explicit frontend-id/backend-id fields; state fields are forced to
// Connected because cloned devices skip the Xenbus negotiation.
func (rw *rewriter) value(key, val string) string {
	if rw.op == CloneBasic {
		return val
	}
	switch key {
	case "frontend-id", "backend-id":
		if val == strconv.FormatUint(uint64(rw.parent), 10) {
			return strconv.FormatUint(uint64(rw.child), 10)
		}
		return val
	case "state":
		// XenbusStateConnected = 4; clones come up pre-connected.
		return "4"
	case "frontend", "backend":
		return rw.rewritePathValue(val)
	}
	return val
}

// rewritePathValue rewrites /..../<parentID>/... path elements.
func (rw *rewriter) rewritePathValue(val string) string {
	parts := strings.Split(val, "/")
	pid := strconv.FormatUint(uint64(rw.parent), 10)
	cid := strconv.FormatUint(uint64(rw.child), 10)
	for i, p := range parts {
		if p == pid {
			parts[i] = cid
		}
	}
	return strings.Join(parts, "/")
}
