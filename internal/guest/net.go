package guest

import (
	"nephele/internal/devices"
	"nephele/internal/netsim"
)

// Network client: datagram send and receive over the kernel's netfront.
// Received packets of any protocol are handed up unparsed.

// UDPSend transmits a datagram from the guest.
func (k *Kernel) UDPSend(dst netsim.IP, srcPort, dstPort uint16, payload []byte) error {
	if k.vif == nil {
		return ErrNoVif
	}
	return k.vif.GuestSend(netsim.Packet{
		SrcIP:   k.vif.IP,
		DstIP:   dst,
		SrcPort: srcPort,
		DstPort: dstPort,
		Proto:   netsim.ProtoUDP,
		Payload: payload,
	})
}

// TryRecv returns the next queued ingress packet, if any.
func (k *Kernel) TryRecv() (netsim.Packet, bool) {
	if k.vif == nil {
		return netsim.Packet{}, false
	}
	return k.vif.GuestReceive()
}

// GuestIP returns the kernel's IP address.
func (k *Kernel) GuestIP() (netsim.IP, error) {
	if k.vif == nil {
		return netsim.IP{}, ErrNoVif
	}
	return k.vif.IP, nil
}

// 9pfs client: forwards to the family's backend process under this
// kernel's domain ID (the fid table view Nephele clones over QMP).

// NineOpen walks/opens a path on the 9pfs mount.
func (k *Kernel) NineOpen(path string, create bool) (NineFile, error) {
	proc, err := k.P.Backends.NineP.Process(uint32(k.Dom))
	if err != nil {
		return NineFile{}, err
	}
	fid, err := proc.Open(uint32(k.Dom), path, create)
	if err != nil {
		return NineFile{}, err
	}
	return NineFile{k: k, fid: fid}, nil
}

// NineFile is an open 9pfs file handle.
type NineFile struct {
	k   *Kernel
	fid devices.Fid
}

// Read reads up to n bytes.
func (f NineFile) Read(n int) ([]byte, error) {
	proc, err := f.k.P.Backends.NineP.Process(uint32(f.k.Dom))
	if err != nil {
		return nil, err
	}
	return proc.Read(uint32(f.k.Dom), f.fid, n)
}

// Write appends at the handle's offset.
func (f NineFile) Write(buf []byte) (int, error) {
	proc, err := f.k.P.Backends.NineP.Process(uint32(f.k.Dom))
	if err != nil {
		return 0, err
	}
	return proc.Write(uint32(f.k.Dom), f.fid, buf)
}

// Close clunks the fid.
func (f NineFile) Close() error {
	proc, err := f.k.P.Backends.NineP.Process(uint32(f.k.Dom))
	if err != nil {
		return err
	}
	return proc.Clunk(uint32(f.k.Dom), f.fid)
}
