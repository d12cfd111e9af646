package guest

import (
	"fmt"
	"strings"
	"testing"

	"nephele/internal/core"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// testEnv boots a platform and one Unikraft guest.
func testEnv(t *testing.T, cfg toolstack.DomainConfig) (*core.Platform, *Kernel) {
	t.Helper()
	p := core.NewPlatform(core.Options{
		MemoryBytes:   2 << 30,
		SkipNameCheck: true,
	})
	p.HostFS.WriteFile("export/hello.txt", []byte("hello 9p world"))
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(p, rec, FlavorUnikraft, vclock.NewMeter(nil))
	if err != nil {
		t.Fatal(err)
	}
	return p, k
}

func guestCfg(name string) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  8,
		VCPUs:     1,
		MaxClones: 64,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
		NinePFS:   []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}
}

func TestKernelBootBasics(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	if k.Flavor != FlavorUnikraft {
		t.Fatal("flavor wrong")
	}
	if !strings.Contains(k.ConsoleLog(), "kernel up") {
		t.Fatalf("console log = %q", k.ConsoleLog())
	}
	if ip, err := k.GuestIP(); err != nil || ip != (netsim.IP{10, 0, 0, 2}) {
		t.Fatalf("GuestIP = %v, %v", ip, err)
	}
}

func TestKernelGuestMemory(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	addr, err := k.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteAt(addr, []byte("guest data"), nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if err := k.ReadAt(addr, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "guest data" {
		t.Fatalf("read %q", buf)
	}
	if err := k.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestKernelUDPToHost(t *testing.T) {
	p, k := testEnv(t, guestCfg("g0"))
	if err := k.UDPSend(p.Host.IPAddr(), 7000, 9999, []byte("ready")); err != nil {
		t.Fatal(err)
	}
	pkts := p.Host.Received()
	if len(pkts) != 1 || string(pkts[0].Payload) != "ready" {
		t.Fatalf("host received %v", pkts)
	}
}

func TestKernelHostToGuestThroughBond(t *testing.T) {
	p, k := testEnv(t, guestCfg("g0"))
	p.Bond.Deliver(netsim.Packet{
		SrcIP: p.Host.IPAddr(), DstIP: netsim.IP{10, 0, 0, 2},
		SrcPort: 9999, DstPort: 7000, Payload: []byte("request"),
	})
	pkt, ok := k.TryRecv()
	if !ok || string(pkt.Payload) != "request" {
		t.Fatalf("guest received %v, %v", pkt, ok)
	}
}

func TestKernelNinePClient(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	f, err := k.NineOpen("/hello.txt", false)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello 9p world" {
		t.Fatalf("9p read %q", data)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Write path.
	g, err := k.NineOpen("/out.txt", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("written by guest")); err != nil {
		t.Fatal(err)
	}
	g.Close()
}

func TestForkSharesHeapCopyOnWrite(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	addr, _ := k.Alloc(32)
	k.WriteAt(addr, []byte("original"), nil)

	var ck *Kernel
	res, err := k.Fork(1, func(c *Kernel) { ck = c }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Children) != 1 || ck != res.Children[0] {
		t.Fatalf("children = %d, continuation ran on %v", len(res.Children), ck)
	}

	// Child sees the parent's heap data.
	buf := make([]byte, 8)
	if err := ck.ReadAt(addr, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("child read %q", buf)
	}
	// Writes are isolated.
	ck.WriteAt(addr, []byte("childnew"), nil)
	k.ReadAt(addr, buf)
	if string(buf) != "original" {
		t.Fatalf("parent sees child write: %q", buf)
	}
	if ck.Faults() == 0 {
		t.Fatal("child write did not fault")
	}
}

func TestForkChildConsoleEmpty(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	k.Printk("pre-fork message\n")
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Children[0]
	if log := ck.ConsoleLog(); log != "" {
		t.Fatalf("child console = %q, want empty", log)
	}
	ck.Printk("child says hi\n")
	if !strings.Contains(ck.ConsoleLog(), "child says hi") {
		t.Fatal("child console write lost")
	}
}

func TestForkChildNetworkIdentity(t *testing.T) {
	p, k := testEnv(t, guestCfg("g0"))
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Children[0]
	cip, err := ck.GuestIP()
	if err != nil {
		t.Fatal(err)
	}
	pip, _ := k.GuestIP()
	if cip != pip {
		t.Fatal("clone IP differs from parent")
	}
	// Distinct flows reach distinct slaves; both kernels can receive.
	if p.Bond.Slaves() != 2 {
		t.Fatalf("bond slaves = %d", p.Bond.Slaves())
	}
	delivered := 0
	for port := uint16(6000); port < 6100 && delivered < 2; port++ {
		p.Bond.Deliver(netsim.Packet{SrcPort: 40000, DstPort: port, SrcIP: p.Host.IPAddr(), DstIP: cip})
		if _, ok := k.TryRecv(); ok {
			delivered++
			continue
		}
		if _, ok := ck.TryRecv(); ok {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatal("bond did not spread flows over parent and clone")
	}
}

// TestHTTPRequestsSpreadAcrossClones is the NGINX data path of §7.1 and
// examples/nginx: every clone keeps the parent's address, and the bond's
// layer3+4 hash hands each connection's request to exactly one of them,
// payload intact.
func TestHTTPRequestsSpreadAcrossClones(t *testing.T) {
	p, k := testEnv(t, guestCfg("http-lb"))
	res, err := k.Fork(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	workers := append([]*Kernel{k}, res.Children...)
	const req = "GET / HTTP/1.1\r\n\r\n"
	served := make([]int, len(workers))
	for c := 0; c < 32; c++ {
		p.Bond.Deliver(netsim.Packet{
			SrcIP: p.Host.IPAddr(), DstIP: netsim.IP{10, 0, 0, 2},
			SrcPort: uint16(40000 + c), DstPort: 80,
			Proto: netsim.ProtoTCP, Payload: []byte(req),
		})
		got := 0
		for i, w := range workers {
			for {
				pkt, ok := w.TryRecv()
				if !ok {
					break
				}
				if string(pkt.Payload) != req {
					t.Fatalf("request %d: worker %d received %q", c, i, pkt.Payload)
				}
				served[i]++
				got++
			}
		}
		if got != 1 {
			t.Fatalf("request %d reached %d workers, want 1", c, got)
		}
	}
	busy := 0
	for _, n := range served {
		if n > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("requests reached only %d of %d workers: %v", busy, len(workers), served)
	}
}

func TestForkMapSnapshot(t *testing.T) {
	// The Redis property: a forked child iterates the database as it was
	// at fork time, while the parent keeps mutating.
	_, k := testEnv(t, guestCfg("g0"))
	m, err := k.NewMap(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := m.Put(key(i), []byte(val(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Children[0]
	cm := ck.Map(0)
	if cm == nil {
		t.Fatal("child map not rebound")
	}
	// Parent mutates after the fork.
	for i := 0; i < 50; i++ {
		m.Put(key(i), []byte("MUTATED-"+val(i)), nil)
	}
	m.Put("new-key", []byte("post-fork"), nil)
	// Child sees the snapshot.
	if cm.Len() != 50 {
		t.Fatalf("child Len = %d, want 50", cm.Len())
	}
	for i := 0; i < 50; i++ {
		got, err := cm.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != val(i) {
			t.Fatalf("child sees mutated value %q for %s", got, key(i))
		}
	}
	if _, err := cm.Get("new-key"); err == nil {
		t.Fatal("child sees post-fork key")
	}
	// And the parent sees its mutations.
	got, _ := m.Get(key(7))
	if string(got) != "MUTATED-"+val(7) {
		t.Fatalf("parent value %q", got)
	}
}

func TestForkNWorkers(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	var started []hv.DomID
	res, err := k.Fork(3, func(ck *Kernel) { started = append(started, ck.Dom) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Children) != 3 || len(started) != 3 {
		t.Fatalf("children = %d, continuations run = %d", len(res.Children), len(started))
	}
	seen := map[hv.DomID]bool{}
	for _, id := range started {
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatal("duplicate worker domains")
	}
}

// TestForkRunsContinuationsInline pins Fork's schedule: every child is
// adopted and running before the first continuation starts, the
// continuations run one by one in child order on the caller's goroutine,
// all before Fork returns, and each child's writes stay its own.
func TestForkRunsContinuationsInline(t *testing.T) {
	const n = 3
	p, k := testEnv(t, guestCfg("inline"))
	addr, err := k.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	k.WriteAt(addr, []byte("parent"), nil)

	var ran []hv.DomID
	res, err := k.Fork(n, func(ck *Kernel) {
		d, err := p.HV.Domain(ck.Dom)
		if err != nil || d.Paused() {
			t.Errorf("child %d paused (%v) when its continuation ran", ck.Dom, err)
		}
		// Siblings that ran before this one wrote their own IDs: none of
		// those writes may show here.
		buf := make([]byte, 6)
		ck.ReadAt(addr, buf)
		if string(buf) != "parent" {
			t.Errorf("child %d sees %q, want the pre-fork state", ck.Dom, buf)
		}
		ck.WriteAt(addr, []byte(fmt.Sprintf("dom%03d", ck.Dom)), nil)
		ran = append(ran, ck.Dom)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != n {
		t.Fatalf("%d continuations ran before Fork returned, want %d", len(ran), n)
	}
	for i, ck := range res.Children {
		if ran[i] != ck.Dom {
			t.Fatalf("continuation %d ran on dom %d, want child order %v", i, ran[i], ran)
		}
		buf := make([]byte, 6)
		ck.ReadAt(addr, buf)
		if want := fmt.Sprintf("dom%03d", ck.Dom); string(buf) != want {
			t.Fatalf("child %d kept %q, want its own %q", ck.Dom, buf, want)
		}
	}
	buf := make([]byte, 6)
	k.ReadAt(addr, buf)
	if string(buf) != "parent" {
		t.Fatalf("parent sees %q after its children wrote", buf)
	}
}

func TestFlavorString(t *testing.T) {
	if FlavorMiniOS.String() != "mini-os" || FlavorUnikraft.String() != "unikraft" {
		t.Fatal("flavor strings wrong")
	}
}

func key(i int) string { return "key:" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
func val(i int) string { return "value-" + key(i) }
