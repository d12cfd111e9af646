package xenstore

import (
	"fmt"
	"strconv"
	"strings"

	"nephele/internal/fault"
	"nephele/internal/vclock"
)

// Clone implements the xs_clone request (paper Fig. 2 and 3): it copies
// the directory at parentPath to childPath in one server-side request,
// rewriting the values that reference the parent domain ID to reference the
// child, with per-device-type heuristics selected by op. Keys are copied as
// they are: the only key that embeds a domain ID is the directory's own,
// and the caller names it in childPath. The destination is created mkdir -p
// style and merged into where it exists; it may not equal, contain or lie
// under the source (ErrBadPath).
//
// The whole point of xs_clone is request economy: a deep copy from the
// client issues one write per node, whereas xs_clone is one request no
// matter how many nodes the device directory holds. The paper's Fig. 4
// ablates exactly this (clone vs "clone + XS deep copy"); xencloned runs the
// deep copy as Snapshot + RewriteForClone + one Write per node, and Clone
// leaves the same tree and node count behind.
func (s *Store) Clone(parentDom, childDom uint32, op CloneOp, parentPath, childPath string, meter *vclock.Meter) error {
	if err := s.faults.Check(fault.PointXSClone); err != nil {
		return err
	}
	s.chargeRequest(meter, true)
	s.stats.CloneReqs++

	srcElems, err := pathElems(parentPath)
	if err != nil {
		return err
	}
	src := s.find(s.at(0), srcElems)
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
	dst := s.mkdir(s.at(0), dstElems)
	dst.value = src.value
	rw := newRewriter(parentDom, childDom, op)
	s.copyTree(dst, src, &rw)
	return nil
}

// within reports whether the pathElems string a names the same node as b
// or one below it.
func within(a, b string) bool {
	return b == "" || a == b || len(a) > len(b) && a[len(b)] == '/' && a[:len(b)] == b
}

// copyTree copies src's descendants into dst node by node, in src's
// order, creating the missing ones and overwriting the values of the rest;
// it counts as part of the single xs_clone request. A dst with no
// children gets its kids array at src's size once, and src's names come
// sorted, so each new child is appended.
func (s *Store) copyTree(dst, src *node, rw *rewriter) {
	if len(dst.kids) == 0 && cap(dst.kids) < len(src.kids) {
		dst.kids = make([]int32, 0, len(src.kids))
	}
	for _, i := range src.kids {
		sc := s.at(i)
		dc := s.child(dst, sc.name)
		dc.value = rw.value(sc.name, sc.value)
		s.copyTree(dc, sc, rw)
	}
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
	s.chargeRequest(meter, false)
	n, err := s.lookup(root)
	if err != nil {
		return nil, err
	}
	var out []Pair
	var rec func(n *node, rel string)
	rec = func(n *node, rel string) {
		out = append(out, Pair{Path: rel, Value: n.value})
		for _, i := range n.kids {
			c := s.at(i)
			child := c.name
			if rel != "" {
				child = rel + "/" + c.name
			}
			rec(c, child)
		}
	}
	rec(n, "")
	return out, nil
}

// RewriteForClone applies the xs_clone value heuristics to one node of a
// parent snapshot, returning the child's relative path — relPath itself,
// as xs_clone copies keys unchanged — and value. It is exported so
// xencloned's deep-copy ablation produces the same tree as xs_clone while
// issuing one Write per node.
func RewriteForClone(parentDom, childDom uint32, op CloneOp, relPath, value string) (string, string) {
	if relPath == "" {
		return "", value
	}
	rw := newRewriter(parentDom, childDom, op)
	return relPath, rw.value(relPath[strings.LastIndexByte(relPath, '/')+1:], value)
}

// rewriter adapts the values that embed domain IDs. Backend and frontend
// device entries reference the owning guest ID in their peer paths and
// frontend-id/backend-id fields; those must be rewritten to the new clone
// ID (§5.2.1). Both IDs are formatted once per request.
type rewriter struct {
	parent, child string
	op            CloneOp
}

func newRewriter(parentDom, childDom uint32, op CloneOp) rewriter {
	return rewriter{
		parent: strconv.FormatUint(uint64(parentDom), 10),
		child:  strconv.FormatUint(uint64(childDom), 10),
		op:     op,
	}
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
		if val == rw.parent {
			return rw.child
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

// rewritePathValue rewrites the domain ID in a peer device path: the
// first element equal to the parent's ID, which in /local/domain/<id>/...
// and /local/domain/0/backend/<kind>/<id>/... is the owner's. Later equal
// elements, such as a device index, are kept.
func (rw *rewriter) rewritePathValue(val string) string {
	for rest, at := val, 0; ; {
		elem, tail, more := strings.Cut(rest, "/")
		if elem == rw.parent {
			return val[:at] + rw.child + val[at+len(elem):]
		}
		if !more {
			return val
		}
		rest, at = tail, at+len(elem)+1
	}
}
