package devices

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

func TestXenbusStateString(t *testing.T) {
	for s := StateUnknown; s <= StateClosed; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty string", int(s))
		}
	}
	if XenbusState(99).String() == "" {
		t.Error("unknown state has empty string")
	}
}

func TestDevicePaths(t *testing.T) {
	if got := devicePath(false, "3", "vif", "0"); got != "/local/domain/3/device/vif/0" {
		t.Fatalf("frontend path = %q", got)
	}
	if got := BackendPath(3, "vif", 0); got != "/local/domain/0/backend/vif/3/0" {
		t.Fatalf("BackendPath = %q", got)
	}
	if got := FrontendDir(3, "vif"); got != "/local/domain/3/device/vif" {
		t.Fatalf("FrontendDir = %q", got)
	}
	if got := BackendDir(3, "vif"); got != "/local/domain/0/backend/vif/3" {
		t.Fatalf("BackendDir = %q", got)
	}
}

func TestWriteDevicePairNegotiatesToConnected(t *testing.T) {
	store := xenstore.New(0)
	meter := vclock.NewMeter(nil)
	if err := WriteDevicePair(obs.Ctx(meter), store, 3, "vif", 0, []Entry{{Key: "mac", Value: "00:16:3e:00:00:03"}}); err != nil {
		t.Fatal(err)
	}
	st, err := DeviceState(obs.OpCtx{}, store, 3, "vif", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != StateConnected {
		t.Fatalf("state after negotiation = %v, want Connected", st)
	}
	// The negotiation cost was charged once.
	if meter.Elapsed() < meter.Costs().DeviceNegotiate {
		t.Fatal("DeviceNegotiate not charged")
	}
	// A boot writes many store entries (the Fig. 4 cost driver).
	if store.Stats().Writes < 10 {
		t.Fatalf("device boot issued only %d writes", store.Stats().Writes)
	}
}

func TestUdevQueue(t *testing.T) {
	q := NewUdevQueue()
	meter := vclock.NewMeter(nil)
	q.Emit(obs.Ctx(meter), UdevEvent{Action: UdevAdd, Kind: "vif", DomID: 3, Index: 0})
	ev, ok := q.TryRecv()
	if !ok || ev.DomID != 3 || ev.Action != UdevAdd {
		t.Fatalf("TryRecv = %+v, %v", ev, ok)
	}
	if _, ok := q.TryRecv(); ok {
		t.Fatal("empty queue returned an event")
	}
	if meter.Elapsed() != meter.Costs().UdevEvent {
		t.Fatal("udev cost not charged")
	}

	// With no reader the queue grows past any fixed capacity: Emit never
	// blocks, and the events come back in emission order.
	const n = 1100
	for i := 0; i < n; i++ {
		q.Emit(obs.Ctx(meter), UdevEvent{Action: UdevAdd, Kind: "vif", DomID: uint32(i)})
	}
	for i := 0; i < n; i++ {
		if ev, ok := q.TryRecv(); !ok || ev.DomID != uint32(i) {
			t.Fatalf("event %d: TryRecv = %+v, %v", i, ev, ok)
		}
	}
	if _, ok := q.TryRecv(); ok {
		t.Fatal("drained queue returned an event")
	}
	if want := (n + 1) * meter.Costs().UdevEvent; meter.Elapsed() != want {
		t.Fatalf("charged %v, want %v", meter.Elapsed(), want)
	}

	// A nil queue is a host without udev: nothing queued, nothing charged.
	var none *UdevQueue
	nilMeter := vclock.NewMeter(nil)
	none.Emit(obs.Ctx(nilMeter), UdevEvent{Action: UdevAdd})
	if _, ok := none.TryRecv(); ok || nilMeter.Elapsed() != 0 {
		t.Fatal("nil queue queued or charged an event")
	}
}

func TestConsoleBackendCreateWriteLog(t *testing.T) {
	c := NewConsoleBackend()
	c.Create(3, nil)
	if !c.Has(3) {
		t.Fatal("console missing after Create")
	}
	c.Create(3, nil) // idempotent
	if err := c.GuestWrite(3, "hello from guest\n"); err != nil {
		t.Fatal(err)
	}
	if got := c.Log(3); !strings.Contains(got, "hello from guest") {
		t.Fatalf("log = %q", got)
	}
	if err := c.GuestWrite(9, "x"); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("write to missing console: %v", err)
	}
}

func TestConsoleCloneStartsEmpty(t *testing.T) {
	c := NewConsoleBackend()
	c.Create(3, nil)
	c.GuestWrite(3, "parent output")
	c.Clone(3, 7, nil)
	if got := c.Log(7); got != "" {
		t.Fatalf("child console log = %q, want empty (§4.2)", got)
	}
	c.GuestWrite(7, "child output")
	if got := c.Log(7); got != "child output" {
		t.Fatalf("child log = %q", got)
	}
	if got := c.Log(3); got != "parent output" {
		t.Fatalf("parent log polluted: %q", got)
	}
	c.Remove(7)
	if c.Has(7) {
		t.Fatal("console present after Remove")
	}
	if c.Log(7) != "" {
		t.Fatal("removed console has log")
	}
}

func TestVifSendReceive(t *testing.T) {
	udev := NewUdevQueue()
	nb := NewNetBackend(udev)
	v := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	if ev, ok := udev.TryRecv(); !ok || ev.Action != UdevAdd {
		t.Fatal("CreateVif did not emit udev add")
	}
	var sent []netsim.Packet
	v.SetEgress(func(p netsim.Packet) { sent = append(sent, p) })
	p := netsim.Packet{
		DstMAC: netsim.MAC{1}, SrcIP: v.IP, DstIP: netsim.IP{10, 0, 0, 1},
		SrcPort: 5000, DstPort: 53, Proto: netsim.ProtoUDP, Payload: []byte("query"),
	}
	if err := v.GuestSend(p); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("egress got %d packets", len(sent))
	}
	if sent[0].SrcMAC != v.MAC {
		t.Fatal("backend did not stamp the vif MAC")
	}
	if string(sent[0].Payload) != "query" {
		t.Fatalf("payload = %q", sent[0].Payload)
	}

	// Ingress.
	v.Deliver(netsim.Packet{SrcPort: 53, DstPort: 5000, Payload: []byte("answer")})
	if v.RXBacklog() != 1 {
		t.Fatal("delivered packet not queued on the RX ring")
	}
	got, ok := v.GuestReceive()
	if !ok || string(got.Payload) != "answer" {
		t.Fatalf("GuestReceive = %+v, %v", got, ok)
	}
	if _, ok := v.GuestReceive(); ok {
		t.Fatal("empty RX returned a packet")
	}
}

func TestVifPacketMarshalRoundTrip(t *testing.T) {
	p := netsim.Packet{
		SrcMAC: netsim.MAC{1, 2, 3, 4, 5, 6}, DstMAC: netsim.MAC{7, 8, 9, 10, 11, 12},
		SrcIP: netsim.IP{10, 0, 0, 1}, DstIP: netsim.IP{10, 0, 0, 2},
		SrcPort: 0xABCD, DstPort: 80, Proto: netsim.ProtoTCP, Payload: []byte("data"),
	}
	q := unmarshalPacket(marshalPacket(p))
	if q.SrcMAC != p.SrcMAC || q.DstMAC != p.DstMAC || q.SrcIP != p.SrcIP || q.DstIP != p.DstIP ||
		q.SrcPort != p.SrcPort || q.DstPort != p.DstPort || q.Proto != p.Proto || string(q.Payload) != "data" {
		t.Fatalf("round trip: %+v != %+v", q, p)
	}
	// Truncated buffer does not panic.
	_ = unmarshalPacket([]byte{1, 2, 3})
}

func TestVifCloneIdentityAndState(t *testing.T) {
	nb := NewNetBackend(NewUdevQueue())
	pv := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	// In-flight RX packet at clone time.
	pv.Deliver(netsim.Packet{SrcPort: 1, Payload: []byte("inflight")})

	meter := vclock.NewMeter(nil)
	cv, err := nb.CloneVif(3, 7, 0, meter)
	if err != nil {
		t.Fatal(err)
	}
	if cv.MAC != pv.MAC {
		t.Fatal("clone MAC differs (must be identical, §5.2.1)")
	}
	if cv.IP != pv.IP {
		t.Fatal("clone IP differs")
	}
	if cv.State() != StateConnected {
		t.Fatalf("clone state = %v, want Connected without negotiation", cv.State())
	}
	// RX ring copied: the child sees the in-flight packet too.
	got, ok := cv.GuestReceive()
	if !ok || string(got.Payload) != "inflight" {
		t.Fatalf("child RX = %+v, %v", got, ok)
	}
	// And the parent still has its own copy.
	got, ok = pv.GuestReceive()
	if !ok || string(got.Payload) != "inflight" {
		t.Fatalf("parent RX = %+v, %v", got, ok)
	}
	// Ring copy cost: 264 page copies (256 RX + 8 TX).
	wantPages := RXRingPages + TXRingPages
	if meter.Elapsed() < meter.Costs().PageCopy*vclock.Duration(wantPages) {
		t.Fatalf("ring copy charged %v, want at least %d page copies", meter.Elapsed(), wantPages)
	}
	if pv.PrivatePages() != wantPages {
		t.Fatalf("PrivatePages = %d, want %d", pv.PrivatePages(), wantPages)
	}
}

func TestVifCloneMissingParent(t *testing.T) {
	nb := NewNetBackend(NewUdevQueue())
	if _, err := nb.CloneVif(99, 7, 0, nil); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("clone of missing vif: %v", err)
	}
}

func TestVifClosedRefusesTraffic(t *testing.T) {
	nb := NewNetBackend(NewUdevQueue())
	v := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	nb.RemoveVif(3, 0, nil)
	if err := v.GuestSend(netsim.Packet{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send on closed vif: %v", err)
	}
	v.Deliver(netsim.Packet{}) // dropped silently
	if v.RXBacklog() != 0 {
		t.Fatal("closed vif queued ingress")
	}
	if nb.Count() != 0 {
		t.Fatalf("Count = %d after remove", nb.Count())
	}
}

func TestNetBackendLookup(t *testing.T) {
	nb := NewNetBackend(nil)
	nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	if _, err := nb.Vif(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.Vif(3, 1); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("lookup missing vif: %v", err)
	}
}

// pathRequests issues the requests of one device pair the way
// WriteDevicePair did before it wrote through directory handles: every
// Write and Read names its full path from the root, in the same order.
func pathRequests(store *xenstore.Store, domid uint32, kind string, index int, extra []Entry, meter *vclock.Meter) error {
	fp, bp := devicePath(false, formatDomID(domid), kind, strconv.Itoa(index)), BackendPath(domid, kind, index)
	writes := []Entry{
		{fp + "/backend", bp}, {fp + "/backend-id", "0"}, {fp + "/state", "1"},
		{fp + "/handle", strconv.Itoa(index)}, {fp + "/tx-ring-ref", "0"},
		{fp + "/rx-ring-ref", "0"}, {fp + "/event-channel", "0"},
		{bp + "/frontend", fp}, {bp + "/frontend-id", strconv.FormatUint(uint64(domid), 10)},
		{bp + "/state", "1"}, {bp + "/handle", strconv.Itoa(index)}, {bp + "/online", "1"},
		{bp + "/hotplug-status", "connected"},
	}
	for _, e := range extra {
		writes = append(writes, Entry{fp + "/" + e.Key, e.Value}, Entry{bp + "/" + e.Key, e.Value})
	}
	for _, w := range writes {
		if err := store.Write(w.Key, w.Value, meter); err != nil {
			return err
		}
	}
	for _, st := range []string{"2", "3", "4"} {
		if err := store.Write(bp+"/state", st, meter); err != nil {
			return err
		}
		if _, err := store.Read(fp+"/state", meter); err != nil {
			return err
		}
		if err := store.Write(fp+"/state", st, meter); err != nil {
			return err
		}
		if _, err := store.Read(bp+"/state", meter); err != nil {
			return err
		}
	}
	meter.Charge(meter.Costs().DeviceNegotiate, 1)
	return nil
}

// vifEntries are a vif's extra keys, as the device-kind table writes them.
func vifEntries(domid uint32) []Entry {
	return []Entry{{Key: "mac", Value: netsim.MACForDomain(domid).String()}, {Key: "ip", Value: "10.0.0.1"}}
}

// residentStore returns a store holding the base entries and a console and
// vif pair of guests 1..n, written with full paths, its access log rotating
// every 100 writes.
func residentStore(t testing.TB, n int) *xenstore.Store {
	store := xenstore.New(100)
	for id := uint32(1); id <= uint32(n); id++ {
		store.Write(DomainPath(id)+"/name", "guest", nil)
		for _, err := range []error{
			pathRequests(store, id, "console", 0, nil, nil),
			pathRequests(store, id, "vif", 0, vifEntries(id), nil),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// TestWriteDevicePairMatchesPathRequests: next to 1 000 resident guests,
// the pairs WriteDevicePair writes through its two directory handles are
// the requests the full-path list issues on a twin store — the same meter
// total, Stats and tree — for a new guest's console and vif and for a
// second vif of a guest that has one.
func TestWriteDevicePairMatchesPathRequests(t *testing.T) {
	a, b := residentStore(t, 1000), residentStore(t, 1000)
	ma, mb := vclock.NewMeter(nil), vclock.NewMeter(nil)
	for _, d := range []struct {
		domid uint32
		kind  string
		index int
		extra []Entry
	}{
		{1001, "console", 0, nil},
		{1001, "vif", 0, vifEntries(1001)},
		{500, "vif", 1, vifEntries(500)},
	} {
		if err := WriteDevicePair(obs.Ctx(ma), a, d.domid, d.kind, d.index, d.extra); err != nil {
			t.Fatal(err)
		}
		if err := pathRequests(b, d.domid, d.kind, d.index, d.extra, mb); err != nil {
			t.Fatal(err)
		}
		if ma.Elapsed() != mb.Elapsed() {
			t.Fatalf("%s %d of guest %d: meter %v, full-path requests %v", d.kind, d.index, d.domid, ma.Elapsed(), mb.Elapsed())
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s %d of guest %d: Stats %+v, full-path requests %+v", d.kind, d.index, d.domid, a.Stats(), b.Stats())
		}
	}
	walk := func(s *xenstore.Store) []string {
		var out []string
		s.Walk("/", func(p, v string) { out = append(out, p+"="+v) })
		return out
	}
	if got, want := walk(a), walk(b); !slices.Equal(got, want) {
		t.Fatalf("trees differ: %d nodes, full-path requests %d", len(got), len(want))
	}

	// The host cost of one vif pair with its mac and ip next to the
	// resident guests, each run a new guest's: 12 allocations, for the
	// string both directory paths and the domid are slices of and the kids
	// arrays of the directories the pair makes (14 when the paths and the
	// domid were three strings). The full-path requests allocate 46 times
	// (measured the same way), 30 of them key paths and the slice listing
	// them. A -race build allocates more in both.
	if raceEnabled {
		return
	}
	domid, extra := uint32(2000), vifEntries(2000)
	if allocs := testing.AllocsPerRun(100, func() {
		domid++
		if err := WriteDevicePair(obs.OpCtx{}, a, domid, "vif", 0, extra); err != nil {
			t.Fatal(err)
		}
	}); allocs > 12 {
		t.Fatalf("a vif pair allocates %v times, want at most 12", allocs)
	}
}

// TestWriteDevicePairFormatsAsBefore checks that the paths and values
// WriteDevicePair builds from one string — and the vif's mac and ip entries,
// also one string — are byte for byte those of the separate formatting
// (devicePath over formatDomID and strconv.Itoa, fmt for the addresses):
// the same tree after the pair, for IDs of one to five digits and indexes
// of one and two.
func TestWriteDevicePairFormatsAsBefore(t *testing.T) {
	vif := NewTable(nil, nil, nil, nil)[1]
	var cfg Config
	for i := 0; i <= 10; i++ {
		cfg.Vifs = append(cfg.Vifs, VifConfig{IP: netsim.IP{10, byte(i), 200, byte(250 + i/2)}})
	}
	for _, domid := range []uint32{0, 7, 99, 100, 0x7FEF} {
		for _, index := range []int{0, 10} {
			id, handle := formatDomID(domid), strconv.Itoa(index)
			front, back, gotID, gotHandle := devicePair(domid, vif.Dir, index)
			if front != devicePath(false, id, vif.Dir, handle) || back != devicePath(true, id, vif.Dir, handle) ||
				gotID != id || gotHandle != handle {
				t.Fatalf("devicePair(%d, %d) = %q %q %q %q", domid, index, front, back, gotID, gotHandle)
			}

			extra := vif.entries(cfg, domid, index)
			mac, ip := netsim.MACForDomain(domid), cfg.Vifs[index].IP
			want := []Entry{
				{"mac", fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1], mac[2], mac[3], mac[4], mac[5])},
				{"ip", fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])},
			}
			if !slices.Equal(extra.list(), want) {
				t.Fatalf("vif entries of %d/%d = %q, want %q", domid, index, extra.list(), want)
			}

			a, b := xenstore.New(0), xenstore.New(0)
			if err := WriteDevicePair(obs.OpCtx{}, a, domid, vif.Dir, index, extra.list()); err != nil {
				t.Fatal(err)
			}
			if err := pathRequests(b, domid, vif.Dir, index, want, nil); err != nil {
				t.Fatal(err)
			}
			walk := func(s *xenstore.Store) []string {
				var out []string
				s.Walk("/", func(p, v string) { out = append(out, p+"="+v) })
				return out
			}
			if got, want := walk(a), walk(b); !slices.Equal(got, want) {
				t.Fatalf("domain %d, index %d: tree\n%q\nseparate formatting\n%q", domid, index, got, want)
			}
		}
	}
}
