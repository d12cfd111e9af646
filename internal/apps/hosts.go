package apps

import (
	"nephele/internal/devices"
	"nephele/internal/gmem"
	"nephele/internal/guest"
	"nephele/internal/obs"
	"nephele/internal/proc"
)

// KernelHost adapts a Unikraft guest kernel to RedisHost.
type KernelHost struct {
	*guest.Kernel
}

// NewKernelHost wraps a kernel.
func NewKernelHost(k *guest.Kernel) *KernelHost { return &KernelHost{Kernel: k} }

// ForkForSave clones the unikernel once (the I/O cloning skips network
// devices; the platform must be configured with SkipNetworkDevices for the
// Fig. 8 setup).
func (h *KernelHost) ForkForSave(ctx obs.OpCtx) (RedisHost, error) {
	res, err := h.Fork(ctx, 1, nil)
	if err != nil {
		return nil, err
	}
	return &KernelHost{Kernel: res.Children[0]}, nil
}

// OpenDump opens the dump file on the guest's 9pfs mount.
func (h *KernelHost) OpenDump(name string) (DumpSink, error) {
	f, err := h.NineOpen("/"+name, true)
	if err != nil {
		return nil, err
	}
	return nineSink{f}, nil
}

type nineSink struct{ f guest.NineFile }

func (s nineSink) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s nineSink) Close() error                { return s.f.Close() }

var _ RedisHost = (*KernelHost)(nil)

// ProcessHost adapts a Linux process (the Fig. 8 baseline: Redis running
// inside an Alpine VM, saving to a 9pfs share) to RedisHost.
type ProcessHost struct {
	*proc.Process
	// FS is the 9pfs share the VM mounted (Dom0 ramdisk-backed).
	FS *devices.HostFS
	// Dir is the directory inside FS where dumps land.
	Dir string
}

// NewProcessHost wraps a process with its dump share.
func NewProcessHost(p *proc.Process, fs *devices.HostFS, dir string) *ProcessHost {
	return &ProcessHost{Process: p, FS: fs, Dir: dir}
}

// ForkForSave forks the process.
func (h *ProcessHost) ForkForSave(ctx obs.OpCtx) (RedisHost, error) {
	child, err := h.Fork(ctx)
	if err != nil {
		return nil, err
	}
	return &ProcessHost{Process: child, FS: h.FS, Dir: h.Dir}, nil
}

// OpenDump opens the dump file on the share.
func (h *ProcessHost) OpenDump(name string) (DumpSink, error) {
	return &hostFSSink{fs: h.FS, path: h.Dir + "/" + name}, nil
}

type hostFSSink struct {
	fs   *devices.HostFS
	path string
	buf  []byte
}

func (s *hostFSSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func (s *hostFSSink) Close() error {
	s.fs.WriteFile(s.path, s.buf)
	return nil
}

var _ RedisHost = (*ProcessHost)(nil)

// Both hosts expose gmem.MemIO through embedding; assert it.
var (
	_ gmem.MemIO = (*KernelHost)(nil)
	_ gmem.MemIO = (*ProcessHost)(nil)
)
