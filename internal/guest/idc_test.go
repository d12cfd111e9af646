package guest

import (
	"errors"
	"testing"
)

func TestIDCAllocSharedRegion(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	region, err := k.IDCAlloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Refs) != 2 {
		t.Fatalf("grant refs = %d", len(region.Refs))
	}
	// Writes before fork land in the region.
	if err := k.WriteAt(region.Base(), []byte("pre-fork"), nil); err != nil {
		t.Fatal(err)
	}

	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Children[0]
	buf := make([]byte, 8)
	ck.ReadAt(region.Base(), buf)
	if string(buf) != "pre-fork" {
		t.Fatalf("child IDC read %q", buf)
	}
	// True sharing: a post-fork parent write IS visible to the child
	// (no COW on IDC pages).
	k.WriteAt(region.Base(), []byte("mutated!"), nil)
	ck.ReadAt(region.Base(), buf)
	if string(buf) != "mutated!" {
		t.Fatalf("IDC page was COWed: child sees %q", buf)
	}
	// And the reverse.
	ck.WriteAt(region.Base(), []byte("from-chi"), nil)
	k.ReadAt(region.Base(), buf)
	if string(buf) != "from-chi" {
		t.Fatalf("parent sees %q", buf)
	}
}

func TestIDCChannelNotification(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	ch, err := k.IDCChannelOpen()
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Children[0]
	// Parent -> child.
	if err := k.NotifyChild(ch, ck.Dom); err != nil {
		t.Fatal(err)
	}
	if !k.P.HV.Events.Pending(ck.Dom, ch.Port) {
		t.Fatal("child missed parent's signal")
	}
	// Child -> parent.
	if err := ck.NotifyParent(ch); err != nil {
		t.Fatal(err)
	}
	if !k.P.HV.Events.Pending(k.Dom, ch.Port) {
		t.Fatal("parent missed child's signal")
	}
}

func TestPipeParentToChild(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	pipe, err := k.NewPipe()
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpipe := pipe.ForChild(res.Children[0])

	msg := []byte("hello through the pipe")
	if _, err := pipe.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	n, err := cpipe.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != string(msg) {
		t.Fatalf("child read %q", buf[:n])
	}
}

func TestPipeChildToParent(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	pipe, err := k.NewPipe()
	if err != nil {
		t.Fatal(err)
	}
	var childErr error
	if _, err := k.Fork(1, func(ck *Kernel) {
		_, childErr = pipe.ForChild(ck).Write([]byte("result=42"))
	}, nil); err != nil {
		t.Fatal(err)
	}
	if childErr != nil {
		t.Fatal(childErr)
	}
	buf := make([]byte, 9)
	n, err := pipe.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "result=42" {
		t.Fatalf("parent read %q", buf[:n])
	}
}

func TestPipeLargeTransferWrapsRing(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	pipe, err := k.NewPipe()
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpipe := pipe.ForChild(res.Children[0])

	// 10 KiB through a <4 KiB ring on one goroutine: each Write stores
	// what fits beside the bytes still queued (ErrPipeFull when that is
	// short), and each Read drains up to 1 KiB of them.
	payload := make([]byte, 10*1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 1024)
	full := 0
	for sent := 0; len(got) < len(payload); {
		queued, rest := sent-len(got), len(payload)-sent
		n, err := pipe.Write(payload[sent:])
		if want := min(rest, pipeCap-queued); n != want {
			t.Fatalf("write with %d queued stored %d bytes, want %d", queued, n, want)
		}
		if short := n < rest; short != errors.Is(err, ErrPipeFull) || (!short && err != nil) {
			t.Fatalf("write of %d/%d bytes: %v", n, rest, err)
		}
		if n < rest {
			full++
		}
		sent += n
		m, err := cpipe.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:m]...)
	}
	if _, err := cpipe.Read(buf); !errors.Is(err, ErrPipeEmpty) {
		t.Fatalf("drained pipe read: %v, want ErrPipeEmpty", err)
	}
	if full == 0 {
		t.Fatal("payload never filled the ring")
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestPipeReadTimeout(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	pipe, err := k.NewPipe()
	if err != nil {
		t.Fatal(err)
	}
	// Nothing queued: the read reports it at once instead of waiting.
	buf := make([]byte, 4)
	if n, err := pipe.Read(buf); n != 0 || err != ErrPipeEmpty {
		t.Fatalf("read on empty pipe: %d, %v", n, err)
	}
}

func TestPipeClosed(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	pipe, _ := k.NewPipe()
	pipe.Close()
	if _, err := pipe.Write([]byte("x")); err != ErrPipeClosed {
		t.Fatalf("write on closed pipe: %v", err)
	}
	if _, err := pipe.Read(make([]byte, 1)); err != ErrPipeClosed {
		t.Fatalf("read on closed pipe: %v", err)
	}
}

func TestSocketPairBidirectional(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	sp, err := k.NewSocketPair()
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Fork(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	csp := sp.ForChild(res.Children[0])

	// Parent -> child.
	if _, err := sp.Send(true, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := csp.Recv(false, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("child got %q", buf)
	}
	// Child -> parent.
	if _, err := csp.Send(false, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Recv(true, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Fatalf("parent got %q", buf)
	}
}

func TestIDCBadSize(t *testing.T) {
	_, k := testEnv(t, guestCfg("g0"))
	if _, err := k.IDCAlloc(0); err == nil {
		t.Fatal("IDCAlloc(0) succeeded")
	}
}
