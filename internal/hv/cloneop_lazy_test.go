package hv

import (
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// lazyClone runs a lazy first stage plus completion on the rig and returns
// the child domain. Its deferred pages are all still undrained when this
// returns.
func lazyClone(t *testing.T, h *Hypervisor, p *Domain) *Domain {
	t.Helper()
	res := h.Clone(CloneRequest{
		Caller: p.ID, Target: p.ID, N: 1, CopyRing: true,
		Mode: mem.CloneLazy, Ctx: obs.Ctx(vclock.NewMeter(nil)),
	})
	if res.Err != nil {
		t.Fatalf("lazy clone: %v", res.Err)
	}
	if res.Stats.Memory.Deferred == 0 {
		t.Fatal("lazy clone deferred nothing")
	}
	if err := h.CloneCompletion(obs.OpCtx{}, res.Children[0]); err != nil {
		t.Fatalf("completion: %v", err)
	}
	d, err := h.Domain(res.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCloneResetDrainsStreamer pins the reset/stream ordering: clone_reset
// on a lazily cloned child that nobody has drained yet must drain the
// stream, on the reset's own meter, before walking the dirty list, or it
// resets against a half-populated space. After the reset the stream must
// be complete and a later WaitStreamed must have nothing left to charge.
func TestCloneResetDrainsStreamer(t *testing.T) {
	h, p := cloneReady(t, 32768, 4)
	if err := p.Space().Write(100, 0, []byte("parent"), nil); err != nil {
		t.Fatal(err)
	}
	c := lazyClone(t, h, p)

	// Dirty one page through the demand path so the reset has work to do.
	if err := c.Space().WriteOp(obs.Ctx(vclock.NewMeter(nil)), 100, 0, []byte("child")); err != nil {
		t.Fatal(err)
	}
	if ss := c.Space().StreamStats(); ss.DemandPages != 1 || ss.StreamedPages != 0 {
		t.Fatalf("stats %+v before the reset, want one demand page and nothing streamed", ss)
	}
	rm := vclock.NewMeter(nil)
	restored, err := h.CloneReset(obs.Ctx(rm), c.ID)
	if err != nil {
		t.Fatalf("reset mid-stream: %v", err)
	}
	if restored == 0 {
		t.Fatal("reset restored no pages despite a dirtied one")
	}
	if ss := c.Space().StreamStats(); ss.Remaining != 0 {
		t.Fatalf("reset returned with %d pages unstreamed", ss.Remaining)
	}
	// The reset drained the stream; a later wait charges nothing.
	wm := vclock.NewMeter(nil)
	if err := h.WaitStreamed(obs.Ctx(wm), c.ID); err != nil {
		t.Fatalf("WaitStreamed after reset: %v", err)
	}
	if wm.Elapsed() != 0 {
		t.Fatalf("WaitStreamed charged %v after the reset already drained the stream", wm.Elapsed())
	}
	// The restored page reads the parent's bytes again.
	buf := make([]byte, 6)
	if err := c.Space().Read(100, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "parent" {
		t.Fatalf("read %q after reset, want the parent image", buf)
	}
}

// TestWaitStreamedMergesOnce pins the at-most-once contract at the
// hypercall surface: the first wait charges the whole stream to the
// caller's meter, including what a meterless access charged before it,
// and the second returns with the meter untouched.
func TestWaitStreamedMergesOnce(t *testing.T) {
	h, p := cloneReady(t, 4096, 4)
	c := lazyClone(t, h, p)
	if err := c.Space().Read(7, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	m1 := vclock.NewMeter(nil)
	if err := h.WaitStreamed(obs.Ctx(m1), c.ID); err != nil {
		t.Fatal(err)
	}
	if m1.Elapsed() == 0 {
		t.Fatal("first WaitStreamed charged no stream time")
	}
	m2 := vclock.NewMeter(nil)
	if err := h.WaitStreamed(obs.Ctx(m2), c.ID); err != nil {
		t.Fatal(err)
	}
	if m2.Elapsed() != 0 {
		t.Fatalf("second WaitStreamed charged %v, want 0", m2.Elapsed())
	}
}
