package devices

import (
	"errors"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func TestHostFSBasics(t *testing.T) {
	fs := NewHostFS()
	fs.WriteFile("etc/hosts", []byte("127.0.0.1 localhost"))
	data, err := fs.ReadFile("/etc/hosts")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "127.0.0.1 localhost" {
		t.Fatalf("ReadFile = %q", data)
	}
	if _, err := fs.ReadFile("/nope"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("read missing: %v", err)
	}
	if n, _ := fs.Size("/etc/hosts"); n != 19 {
		t.Fatalf("Size = %d", n)
	}
	fs.WriteFile("etc/passwd", []byte("root"))
	if got := fs.List("/etc"); len(got) != 2 {
		t.Fatalf("List = %v", got)
	}
	if err := fs.Remove("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/etc/hosts"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestNinePOpenReadWriteClunk(t *testing.T) {
	fs := NewHostFS()
	fs.WriteFile("export/data.txt", []byte("hello 9p"))
	p := NewNinePProcess(obs.Ctx(vclock.NewMeter(nil)), fs, "/export", 3)

	fid, err := p.Open(3, "/data.txt", false)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := p.Read(3, fid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("Read = %q", buf)
	}
	// Offset advanced.
	buf, _ = p.Read(3, fid, 100)
	if string(buf) != " 9p" {
		t.Fatalf("second Read = %q", buf)
	}
	// EOF.
	buf, err = p.Read(3, fid, 10)
	if err != nil || buf != nil {
		t.Fatalf("read at EOF = %q, %v", buf, err)
	}
	if err := p.Clunk(3, fid); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(3, fid, 1); !errors.Is(err, ErrBadFid) {
		t.Fatalf("read after clunk: %v", err)
	}
	if err := p.Clunk(3, fid); !errors.Is(err, ErrBadFid) {
		t.Fatalf("double clunk: %v", err)
	}
}

func TestNinePOpenCreateAndWrite(t *testing.T) {
	fs := NewHostFS()
	p := NewNinePProcess(obs.OpCtx{}, fs, "/export", 3)
	if _, err := p.Open(3, "/dump.rdb", false); !errors.Is(err, ErrNoFile) {
		t.Fatalf("open missing without create: %v", err)
	}
	fid, err := p.Open(3, "/dump.rdb", true)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Write(3, fid, []byte("snapshot-v1")); err != nil || n != 11 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	// Overwrite part of it via a second fid.
	fid2, _ := p.Open(3, "/dump.rdb", false)
	p.Write(3, fid2, []byte("SNAP"))
	data, err := fs.ReadFile("/export/dump.rdb")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "SNAPshot-v1" {
		t.Fatalf("file contents = %q", data)
	}
}

func TestNinePPathEscapeContained(t *testing.T) {
	fs := NewHostFS()
	fs.WriteFile("secret", []byte("host secret"))
	fs.WriteFile("export/ok", []byte("fine"))
	p := NewNinePProcess(obs.OpCtx{}, fs, "/export", 3)
	// Attempts to escape the export root stay inside it.
	if _, err := p.Open(3, "/../secret", false); err == nil {
		t.Fatal("path escape reached host file")
	}
}

func TestQMPCloneDuplicatesFidTable(t *testing.T) {
	fs := NewHostFS()
	fs.WriteFile("export/a", []byte("aaaa"))
	fs.WriteFile("export/b", []byte("bbbb"))
	proc := NewNinePProcess(obs.OpCtx{}, fs, "/export", 3)
	fa, _ := proc.Open(3, "/a", false)
	fb, _ := proc.Open(3, "/b", false)
	proc.Read(3, fa, 2) // advance offset to 2

	meter := vclock.NewMeter(nil)
	if err := proc.HandleQMPClone(obs.Ctx(meter), QMPCloneRequest{Parent: 3, Child: 7}); err != nil {
		t.Fatal(err)
	}
	if !proc.Serves(7) || proc.Domains() != 2 {
		t.Fatal("child not adopted into the same process")
	}
	if proc.FidCount(7) != 2 {
		t.Fatalf("child fid count = %d, want 2", proc.FidCount(7))
	}
	// Offsets preserved: the child resumes where the parent was.
	buf, err := proc.Read(7, fa, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "aa" {
		t.Fatalf("child read = %q, want offset-preserving read", buf)
	}
	// Tables are independent after cloning.
	proc.Clunk(7, fb)
	if proc.FidCount(3) != 2 {
		t.Fatal("child clunk affected parent table")
	}
	if meter.Elapsed() < meter.Costs().QMPRoundTrip {
		t.Fatal("QMP round trip not charged")
	}
}

func TestQMPCloneUnknownParent(t *testing.T) {
	fs := NewHostFS()
	p := NewNinePProcess(obs.OpCtx{}, fs, "/export", 3)
	if err := p.HandleQMPClone(obs.OpCtx{}, QMPCloneRequest{Parent: 99, Child: 7}); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("clone from unknown parent: %v", err)
	}
}

func TestNinePBackendSharedProcessPerFamily(t *testing.T) {
	fs := NewHostFS()
	fs.WriteFile("export/x", []byte("x"))
	b := NewNinePBackend(fs)
	b.Launch(obs.OpCtx{}, 3, "/export")
	if err := b.Clone(obs.OpCtx{}, 3, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.Clone(obs.OpCtx{}, 7, 9); err != nil { // clone of a clone
		t.Fatal(err)
	}
	// One process serves the whole family (the Nephele design; a
	// process per clone would bottleneck Dom0, §5.2.1).
	if got := b.ProcessCount(); got != 1 {
		t.Fatalf("ProcessCount = %d, want 1", got)
	}
	p3, _ := b.Process(3)
	p9, _ := b.Process(9)
	if p3 != p9 {
		t.Fatal("family members use different processes")
	}
	// Separate family gets its own process.
	b.Launch(obs.OpCtx{}, 20, "/export")
	if got := b.ProcessCount(); got != 2 {
		t.Fatalf("ProcessCount = %d, want 2", got)
	}
	// Teardown.
	b.Remove(9)
	if _, err := b.Process(9); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("process lookup after remove: %v", err)
	}
	if p3.Serves(9) {
		t.Fatal("removed domain still served")
	}
}

func TestNinePBackendCloneUnknownParent(t *testing.T) {
	b := NewNinePBackend(NewHostFS())
	if err := b.Clone(obs.OpCtx{}, 1, 2); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("clone unknown parent: %v", err)
	}
}
