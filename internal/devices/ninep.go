package devices

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"

	"nephele/internal/fault"
	"nephele/internal/obs"
)

// The 9pfs device: an NFS-like remote filesystem letting multiple guests
// share the same root filesystem (§5.2.1). Unlike netback, the 9pfs
// backend runs as a Qemu process in Dom0 and keeps a table of file IDs
// (fids) for every open file, analogous to a process's descriptor table.
// Nephele clones the fid table inside the SAME backend process (one
// process serves the whole family) rather than spawning a backend per
// clone, which would bottleneck Dom0 at high clone densities; cloning
// requests reach the process through a QMP extension.

// Errors.
var (
	ErrBadFid    = errors.New("devices: bad fid")
	ErrNoFile    = errors.New("devices: no such file")
	ErrNoProcess = errors.New("devices: no backend process for domain")
)

// HostFS is the in-memory Dom0 filesystem exported over 9pfs — the
// paper's ramdisk-backed root filesystem.
type HostFS struct {
	files map[string][]byte // path -> contents; dirs are implicit
}

// NewHostFS creates an empty filesystem.
func NewHostFS() *HostFS {
	return &HostFS{files: make(map[string][]byte)}
}

// WriteFile stores contents at a cleaned absolute path.
func (fs *HostFS) WriteFile(p string, data []byte) {
	fs.files[path.Clean("/"+p)] = append([]byte(nil), data...)
}

// ReadFile returns the contents at p.
func (fs *HostFS) ReadFile(p string) ([]byte, error) {
	data, ok := fs.files[path.Clean("/"+p)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFile, p)
	}
	return append([]byte(nil), data...), nil
}

// Len reports a file's current length, or -1 if it does not exist,
// without copying the contents.
func (fs *HostFS) Len(p string) int {
	data, ok := fs.files[path.Clean("/"+p)]
	if !ok {
		return -1
	}
	return len(data)
}

// AppendFile extends a file in place (the hot path of dump serialization)
// and returns the new length.
func (fs *HostFS) AppendFile(p string, data []byte) int {
	key := path.Clean("/" + p)
	fs.files[key] = append(fs.files[key], data...)
	return len(fs.files[key])
}

// List returns the paths under prefix, sorted.
func (fs *HostFS) List(prefix string) []string {
	prefix = path.Clean("/" + prefix)
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Remove deletes a file.
func (fs *HostFS) Remove(p string) error {
	p = path.Clean("/" + p)
	if _, ok := fs.files[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNoFile, p)
	}
	delete(fs.files, p)
	return nil
}

// Size returns a file's length.
func (fs *HostFS) Size(p string) (int, error) {
	data, err := fs.ReadFile(p)
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// Fid is a 9p file identifier.
type Fid uint32

// fidEntry is one open file in a backend process's table.
type fidEntry struct {
	path   string
	offset int
	open   bool
}

// NinePProcess is one Qemu 9pfs backend process serving a family of
// domains: the parent it was launched for plus every clone adopted through
// QMP. Each domain has its own fid table (cloned from its parent's), but
// they all share the process and the exported filesystem.
type NinePProcess struct {
	fs      *HostFS
	export  string // exported root
	tables  map[uint32]map[Fid]*fidEntry
	nextFid map[uint32]Fid
}

// NewNinePProcess launches a backend process exporting root for domid.
func NewNinePProcess(ctx obs.OpCtx, fs *HostFS, export string, domid uint32) *NinePProcess {
	meter := ctx.Meter()
	p := &NinePProcess{
		fs:      fs,
		export:  export,
		tables:  map[uint32]map[Fid]*fidEntry{domid: {}},
		nextFid: map[uint32]Fid{domid: 1},
	}
	meter.Charge(meter.Costs().BackendCreate, 1)
	return p
}

// Serves reports whether the process serves domid.
func (p *NinePProcess) Serves(domid uint32) bool {
	_, ok := p.tables[domid]
	return ok
}

// Domains reports how many domains the process serves.
func (p *NinePProcess) Domains() int {
	return len(p.tables)
}

// FidCount reports open fids for a domain.
func (p *NinePProcess) FidCount(domid uint32) int {
	return len(p.tables[domid])
}

func (p *NinePProcess) table(domid uint32) (map[Fid]*fidEntry, error) {
	t, ok := p.tables[domid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, domid)
	}
	return t, nil
}

// resolve maps a guest path into the exported root. The guest path is
// normalized first so ".." components cannot escape the export.
func (p *NinePProcess) resolve(guestPath string) string {
	clean := path.Clean("/" + strings.TrimPrefix(guestPath, "/"))
	return path.Clean(p.export + clean)
}

// Walk+open: returns a fid for guestPath, creating the file if requested.
func (p *NinePProcess) Open(domid uint32, guestPath string, create bool) (Fid, error) {
	t, err := p.table(domid)
	if err != nil {
		return 0, err
	}
	hp := p.resolve(guestPath)
	if _, err := p.fs.ReadFile(hp); err != nil {
		if !create {
			return 0, err
		}
		p.fs.WriteFile(hp, nil)
	}
	fid := p.nextFid[domid]
	p.nextFid[domid]++
	t[fid] = &fidEntry{path: hp, open: true}
	return fid, nil
}

// Read reads up to n bytes at the fid's offset.
func (p *NinePProcess) Read(domid uint32, fid Fid, n int) ([]byte, error) {
	t, err := p.table(domid)
	if err != nil {
		return nil, err
	}
	e, ok := t[fid]
	if !ok || !e.open {
		return nil, fmt.Errorf("%w: %d", ErrBadFid, fid)
	}
	data, err := p.fs.ReadFile(e.path)
	if err != nil {
		return nil, err
	}
	if e.offset >= len(data) {
		return nil, nil
	}
	end := e.offset + n
	if end > len(data) {
		end = len(data)
	}
	out := data[e.offset:end]
	e.offset = end
	return out, nil
}

// Write appends buf at the fid's offset (extending the file).
func (p *NinePProcess) Write(domid uint32, fid Fid, buf []byte) (int, error) {
	t, err := p.table(domid)
	if err != nil {
		return 0, err
	}
	e, ok := t[fid]
	if !ok || !e.open {
		return 0, fmt.Errorf("%w: %d", ErrBadFid, fid)
	}
	// Fast path: sequential appends extend the file in place, as on a
	// real host filesystem; random-offset writes read-modify-write.
	if size := p.fs.Len(e.path); size >= 0 && e.offset == size {
		e.offset = p.fs.AppendFile(e.path, buf)
		return len(buf), nil
	}
	data, err := p.fs.ReadFile(e.path)
	if err != nil {
		return 0, err
	}
	end := e.offset + len(buf)
	if end > len(data) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[e.offset:end], buf)
	p.fs.WriteFile(e.path, data)
	e.offset = end
	return len(buf), nil
}

// Clunk closes a fid.
func (p *NinePProcess) Clunk(domid uint32, fid Fid) error {
	t, err := p.table(domid)
	if err != nil {
		return err
	}
	if _, ok := t[fid]; !ok {
		return fmt.Errorf("%w: %d", ErrBadFid, fid)
	}
	delete(t, fid)
	return nil
}

// QMPCloneRequest is the QMP extension carrying a cloning request from
// xencloned to the backend process (§5.2.1).
type QMPCloneRequest struct {
	Parent uint32
	Child  uint32
}

// HandleQMPClone adopts the child into this process: its fid table is
// duplicated from the parent's, entry by entry, preserving offsets — the
// option Nephele picked over launching a backend process per clone.
func (p *NinePProcess) HandleQMPClone(ctx obs.OpCtx, req QMPCloneRequest) error {
	meter := ctx.Meter()
	pt, err := p.table(req.Parent)
	if err != nil {
		return err
	}
	ct := make(map[Fid]*fidEntry, len(pt))
	for fid, e := range pt {
		cp := *e
		ct[fid] = &cp
	}
	p.tables[req.Child] = ct
	p.nextFid[req.Child] = p.nextFid[req.Parent]
	meter.Charge(meter.Costs().QMPRoundTrip, 1)
	meter.Charge(meter.Costs().NinePFidClone, len(pt))
	return nil
}

// DropDomain removes a domain's fid table (domain teardown).
func (p *NinePProcess) DropDomain(domid uint32) {
	delete(p.tables, domid)
	delete(p.nextFid, domid)
}

// NinePBackend is the Dom0-side registry of 9pfs backend processes: one
// process per family, launched by xl when the parent boots.
type NinePBackend struct {
	fs        *HostFS
	processes map[uint32]*NinePProcess // domid -> serving process
	faults    *fault.Registry
}

// NewNinePBackend creates the registry over the exported host filesystem.
func NewNinePBackend(fs *HostFS) *NinePBackend {
	return &NinePBackend{fs: fs, processes: make(map[uint32]*NinePProcess)}
}

// SetFaults installs a fault-injection registry on the clone path (tests).
func (b *NinePBackend) SetFaults(r *fault.Registry) {
	b.faults = r
}

// Launch starts a backend process for a freshly booted guest.
func (b *NinePBackend) Launch(ctx obs.OpCtx, domid uint32, export string) *NinePProcess {
	p := NewNinePProcess(ctx, b.fs, export, domid)
	b.processes[domid] = p
	return p
}

// Clone sends the QMP cloning request to the parent's process and
// registers the child with the same process.
func (b *NinePBackend) Clone(ctx obs.OpCtx, parent, child uint32) error {
	p, ok := b.processes[parent]
	if err := b.faults.Check(fault.PointDev9pfsClone); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoProcess, parent)
	}
	if err := p.HandleQMPClone(ctx, QMPCloneRequest{Parent: parent, Child: child}); err != nil {
		return err
	}
	b.processes[child] = p
	return nil
}

// Process returns the backend process serving domid.
func (b *NinePBackend) Process(domid uint32) (*NinePProcess, error) {
	p, ok := b.processes[domid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, domid)
	}
	return p, nil
}

// ProcessCount reports the number of distinct backend processes — the
// quantity the per-clone-process alternative would blow up (ablation
// BenchmarkAblation9pfsBackend).
func (b *NinePBackend) ProcessCount() int {
	seen := make(map[*NinePProcess]struct{})
	for _, p := range b.processes {
		seen[p] = struct{}{}
	}
	return len(seen)
}

// Remove drops a domain from its process, reporting whether one served it.
func (b *NinePBackend) Remove(domid uint32) bool {
	p, ok := b.processes[domid]
	delete(b.processes, domid)
	if ok {
		p.DropDomain(domid)
	}
	return ok
}
