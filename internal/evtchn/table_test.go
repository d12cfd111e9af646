package evtchn

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"nephele/internal/mem"
)

// refTables is the capacity-sized reference the use-sized port table must
// be indistinguishable from: every domain owns maxPort slots from the start,
// a port is bad only at or beyond maxPort, and the lowest free slot is
// handed out first. It models numbering, states and error kinds — delivery
// is covered by the handler tests.
type refTables struct {
	max  int
	doms map[mem.DomID][]channel
}

func newRef(max int, doms ...mem.DomID) *refTables {
	r := &refTables{max: max, doms: map[mem.DomID][]channel{}}
	for _, d := range doms {
		r.add(d)
	}
	return r
}

func (r *refTables) add(d mem.DomID) {
	r.doms[d] = make([]channel, r.max)
	r.doms[d][0].state = StateInterdomain
}

func (r *refTables) bad(p Port) bool { return int(p) <= 0 || int(p) >= r.max }

func (r *refTables) alloc(d mem.DomID) (Port, error) {
	for p := 1; p < r.max; p++ {
		if r.doms[d][p].state == StateFree {
			return Port(p), nil
		}
	}
	return 0, ErrPortsFull
}

func (r *refTables) allocUnbound(d, remote mem.DomID) (Port, error) {
	p, err := r.alloc(d)
	if err != nil {
		return 0, err
	}
	st := StateUnbound
	if remote == mem.DomIDChild {
		st = StateChildWildcard
	}
	r.doms[d][p] = channel{state: st, remoteDom: remote}
	return p, nil
}

func (r *refTables) bind(d, rd mem.DomID, rp Port) (Port, error) {
	if r.bad(rp) {
		return 0, ErrBadPort
	}
	rch := &r.doms[rd][rp]
	if rch.state != StateUnbound || (rch.remoteDom != d && rch.remoteDom != mem.DomIDInvalid) {
		return 0, ErrBadState
	}
	p, err := r.alloc(d)
	if err != nil {
		return 0, err
	}
	r.doms[d][p] = channel{state: StateInterdomain, remoteDom: rd, remotePort: rp}
	*rch = channel{state: StateInterdomain, remoteDom: d, remotePort: p}
	return p, nil
}

func (r *refTables) bindVIRQ(d mem.DomID, v VIRQ) (Port, error) {
	p, err := r.alloc(d)
	if err != nil {
		return 0, err
	}
	r.doms[d][p] = channel{state: StateVIRQ, virq: v}
	return p, nil
}

func (r *refTables) close(d mem.DomID, p Port) error {
	if r.bad(p) {
		return ErrBadPort
	}
	ch := &r.doms[d][p]
	if ch.state == StateInterdomain {
		pc := &r.doms[ch.remoteDom][ch.remotePort]
		if pc.state == StateInterdomain && pc.remoteDom == d && pc.remotePort == p {
			pc.state, pc.remoteDom = StateUnbound, mem.DomIDInvalid
		}
	}
	*ch = channel{}
	return nil
}

func (r *refTables) send(d mem.DomID, p Port) error {
	if r.bad(p) {
		return ErrBadPort
	}
	switch r.doms[d][p].state {
	case StateInterdomain, StateChildWildcard, StateUnbound:
		return nil
	}
	return ErrBadState
}

func (r *refTables) peer(d mem.DomID, p Port) (mem.DomID, Port, error) {
	if r.bad(p) {
		return 0, 0, ErrBadPort
	}
	ch := r.doms[d][p]
	if ch.state != StateInterdomain {
		return 0, 0, ErrBadState
	}
	return ch.remoteDom, ch.remotePort, nil
}

func (r *refTables) clone(parent, child mem.DomID) int {
	r.add(child)
	cloned := 0
	for p := 1; p < r.max; p++ {
		pch := r.doms[parent][p]
		switch pch.state {
		case StateFree:
			continue
		case StateVIRQ:
			r.doms[child][p] = channel{state: StateVIRQ, virq: pch.virq}
		case StateChildWildcard:
			r.doms[child][p] = channel{state: StateInterdomain, remoteDom: parent, remotePort: Port(p)}
		case StateInterdomain:
			r.doms[child][p] = channel{state: StateUnbound, remoteDom: mem.DomIDInvalid}
		case StateUnbound:
			r.doms[child][p] = channel{state: StateUnbound, remoteDom: pch.remoteDom}
		}
		cloned++
	}
	return cloned
}

// sameKind reports whether got is the error kind want (nil matches nil).
func sameKind(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// TestPortTableMatchesCapacitySizedReference drives seeded alloc / bind /
// virq / close / send / clone sequences through the subsystem and the
// capacity-sized reference and compares, after every step, the port or
// error kind returned and the state and peer of every port of every domain
// — in the table, between its end and the limit, and beyond the limit.
func TestPortTableMatchesCapacitySizedReference(t *testing.T) {
	const max = 12
	full := 0 // steps refused with ErrPortsFull: the limit must be exercised
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doms := []mem.DomID{1, 2, 3}
		s, ref := New(max), newRef(max, doms...)
		for _, d := range doms {
			s.AddDomain(d, nil)
		}
		nextDom := mem.DomID(4)
		anyPort := func() Port { return Port(rng.Intn(max+4) - 1) } // -1 .. max+2
		for step := 0; step < 400; step++ {
			d := doms[rng.Intn(len(doms))]
			var got, want error
			var gp, wp Port
			op := rng.Intn(8)
			switch op {
			case 0:
				remote := doms[rng.Intn(len(doms))]
				if rng.Intn(3) == 0 {
					remote = mem.DomIDChild
				}
				gp, got = s.AllocUnbound(d, remote)
				wp, want = ref.allocUnbound(d, remote)
			case 1:
				rd, rp := doms[rng.Intn(len(doms))], anyPort()
				gp, got = s.BindInterdomain(d, rd, rp)
				wp, want = ref.bind(d, rd, rp)
			case 2:
				v := VIRQ(rng.Intn(3))
				gp, got = s.BindVIRQ(d, v)
				wp, want = ref.bindVIRQ(d, v)
			case 3, 4:
				p := anyPort()
				got, want = s.Close(d, p), ref.close(d, p)
			case 5:
				p := anyPort()
				got, want = s.Send(d, p), ref.send(d, p)
			case 6:
				if len(doms) < 6 {
					child := nextDom
					nextDom++
					s.AddDomain(child, nil)
					st, err := s.CloneDomain(d, child, nil)
					if n := ref.clone(d, child); err != nil || st.Cloned != n {
						t.Fatalf("seed %d step %d: CloneDomain(%d) = %+v, %v; reference cloned %d", seed, step, d, st, err, n)
					}
					doms = append(doms, child)
				}
			case 7:
				p := anyPort()
				gd, gport, gerr := s.Peer(d, p)
				wd, wport, werr := ref.peer(d, p)
				if !sameKind(gerr, werr) || gd != wd || gport != wport {
					t.Fatalf("seed %d step %d: Peer(%d, %d) = (%d, %d, %v), reference (%d, %d, %v)", seed, step, d, p, gd, gport, gerr, wd, wport, werr)
				}
			}
			if !sameKind(got, want) || gp != wp {
				t.Fatalf("seed %d step %d op %d on dom %d: got (%d, %v), reference (%d, %v)", seed, step, op, d, gp, got, wp, want)
			}
			if want == ErrPortsFull {
				full++
			}
			for _, d := range doms {
				n := 0
				for p := Port(0); int(p) < max+2; p++ {
					wantState := StateFree
					if int(p) < max {
						wantState = ref.doms[d][p].state
					}
					if st := s.State(d, p); st != wantState {
						t.Fatalf("seed %d step %d: State(%d, %d) = %v, reference %v", seed, step, d, p, st, wantState)
					}
					if p > 0 && wantState != StateFree {
						n++
					}
					if wantState == StateInterdomain && p > 0 {
						pd, pp, err := s.Peer(d, p)
						if ch := ref.doms[d][p]; err != nil || pd != ch.remoteDom || pp != ch.remotePort {
							t.Fatalf("seed %d step %d: Peer(%d, %d) = (%d, %d, %v), reference (%d, %d)", seed, step, d, p, pd, pp, err, ch.remoteDom, ch.remotePort)
						}
					}
				}
				if got := s.PortCount(d); got != n {
					t.Fatalf("seed %d step %d: PortCount(%d) = %d, reference %d", seed, step, d, got, n)
				}
			}
		}
	}
	if full == 0 {
		t.Fatal("no sequence filled a table: ErrPortsFull at the limit went unchecked")
	}
}

// TestCloneDomainKeepsHighPort: a parent whose only bound port is 900 gives
// the child port 900, and the ports between stay free in both.
func TestCloneDomainKeepsHighPort(t *testing.T) {
	s := New(1024)
	s.AddDomain(1, nil)
	for p := Port(1); p <= 900; p++ {
		if got, err := s.AllocUnbound(1, mem.DomIDChild); err != nil || got != p {
			t.Fatalf("port %d: got %d, %v", p, got, err)
		}
	}
	for p := Port(1); p < 900; p++ {
		if err := s.Close(1, p); err != nil {
			t.Fatal(err)
		}
	}
	s.AddDomain(2, nil)
	st, err := s.CloneDomain(1, 2, nil)
	if err != nil || st.Cloned != 1 || st.IDCBound != 1 {
		t.Fatalf("CloneDomain = %+v, %v", st, err)
	}
	if got := s.State(2, 900); got != StateInterdomain {
		t.Fatalf("child port 900 is %v", got)
	}
	if dom, port, err := s.Peer(2, 900); err != nil || dom != 1 || port != 900 {
		t.Fatalf("child port 900 peers (%d, %d), %v", dom, port, err)
	}
	if got := s.PortCount(2); got != 1 {
		t.Fatalf("child has %d ports", got)
	}
	// The lowest free port of the child is still 1.
	if p, err := s.AllocUnbound(2, 1); err != nil || p != 1 {
		t.Fatalf("child allocates port %d, %v", p, err)
	}
	// A notification to a port its target has no slot for is still latched.
	s.AddDomain(3, nil)
	if err := s.SendToChild(1, 900, 3); err != nil {
		t.Fatal(err)
	}
	if !s.Pending(3, 900) || s.Pending(3, 900) || s.Pending(3, 899) {
		t.Fatal("port 900 of a slotless domain: pending bit not latched once")
	}
}

// TestIdleDomainIsSmall: registering, cloning into and removing a guest
// that binds no port costs a header, not a table sized to the limit
// (1024 ports were 32 KiB per domain).
func TestIdleDomainIsSmall(t *testing.T) {
	s := New(1024)
	s.AddDomain(1, nil)
	cycle := func() {
		s.AddDomain(2, nil)
		if _, err := s.CloneDomain(1, 2, nil); err != nil {
			t.Fatal(err)
		}
		s.RemoveDomain(2)
	}
	cycle() // the domain map reaches its size
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("an idle domain's lifetime allocates %d bytes, want < 1 KiB", per)
	}
}
