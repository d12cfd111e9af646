package toolstack

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nephele/internal/mem"
)

// The on-disk image format is a length-prefixed extent stream, so the
// cache can spill images and reload them without materializing anything
// but the data runs' pages:
//
//	magic "NEPHIMG1"
//	u32 config-JSON length, config JSON
//	u64 npages, u32 nruns
//	per run: u8 kind (0 zero | 1 alias | 2 data), u64 start, u32 count
//	  alias: u64 alias
//	  data:  u64 content hash, then count page records:
//	         u8 present; if present, u32 length + bytes
//
// All integers are little-endian. The per-run content hash makes a
// reloaded image verifiable: ReadImage recomputes each data run's hash and
// refuses a corrupted stream.

var imageMagic = [8]byte{'N', 'E', 'P', 'H', 'I', 'M', 'G', '1'}

// ErrBadImage marks a malformed or corrupted serialized image.
var ErrBadImage = errors.New("toolstack: bad image stream")

const (
	runKindZero  = 0
	runKindAlias = 1
	runKindData  = 2
)

// WriteTo streams the image in the on-disk extent format. It implements
// io.WriterTo.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	img.ensureHashed()
	cw := &countWriter{w: bufio.NewWriter(w)}
	cfgJSON, err := json.Marshal(img.Config)
	if err != nil {
		return 0, fmt.Errorf("toolstack: encode image config: %w", err)
	}
	cw.bytes(imageMagic[:])
	cw.u32(uint32(len(cfgJSON)))
	cw.bytes(cfgJSON)
	cw.u64(uint64(img.npages))
	cw.u32(uint32(len(img.runs)))
	for i := range img.runs {
		r := &img.runs[i]
		switch {
		case r.IsAlias:
			cw.u8(runKindAlias)
			cw.u64(uint64(r.Start))
			cw.u32(uint32(r.Count))
			cw.u64(uint64(r.Alias))
		case r.Pages == nil:
			cw.u8(runKindZero)
			cw.u64(uint64(r.Start))
			cw.u32(uint32(r.Count))
		default:
			cw.u8(runKindData)
			cw.u64(uint64(r.Start))
			cw.u32(uint32(r.Count))
			cw.u64(img.infos[i].Hash)
			for _, data := range r.Pages {
				if data == nil {
					cw.u8(0)
					continue
				}
				cw.u8(1)
				cw.u32(uint32(len(data)))
				cw.bytes(data)
			}
		}
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// ReadImage reads one image from the extent stream, verifying the magic,
// the run geometry and every data run's content hash.
func ReadImage(r io.Reader) (*Image, error) {
	cr := &reader{r: bufio.NewReader(r)}
	var magic [8]byte
	cr.bytes(magic[:])
	if cr.err == nil && magic != imageMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadImage, magic[:])
	}
	cfgLen := cr.u32()
	if cr.err == nil && cfgLen > 1<<20 {
		return nil, fmt.Errorf("%w: config length %d", ErrBadImage, cfgLen)
	}
	cfgJSON := make([]byte, cfgLen)
	cr.bytes(cfgJSON)
	img := &Image{}
	if cr.err == nil {
		if err := json.Unmarshal(cfgJSON, &img.Config); err != nil {
			return nil, fmt.Errorf("%w: config: %v", ErrBadImage, err)
		}
	}
	npages := cr.u64()
	nruns := cr.u32()
	if cr.err == nil && (npages > 1<<32 || uint64(nruns) > npages+1) {
		return nil, fmt.Errorf("%w: %d pages in %d runs", ErrBadImage, npages, nruns)
	}
	img.npages = int(npages)
	next := mem.PFN(0) // runs must be sorted and non-overlapping
	for i := uint32(0); i < nruns && cr.err == nil; i++ {
		kind := cr.u8()
		start := mem.PFN(cr.u64())
		count := int(cr.u32())
		if cr.err != nil {
			break
		}
		if count <= 0 || start < next || int(start)+count > img.npages {
			return nil, fmt.Errorf("%w: run %d..%d out of order or range", ErrBadImage, start, int(start)+count)
		}
		next = start + mem.PFN(count)
		run := mem.SnapshotRun{Start: start, Count: count}
		switch kind {
		case runKindZero:
		case runKindAlias:
			run.Alias = mem.PFN(cr.u64())
			run.IsAlias = true
			if cr.err == nil && run.Alias >= start {
				return nil, fmt.Errorf("%w: alias run %d points forward to %d", ErrBadImage, start, run.Alias)
			}
		case runKindData:
			want := cr.u64()
			run.Pages = make([][]byte, count)
			for j := 0; j < count && cr.err == nil; j++ {
				if cr.u8() == 0 {
					continue
				}
				n := cr.u32()
				if cr.err == nil && n > mem.PageSize {
					return nil, fmt.Errorf("%w: page of %d bytes", ErrBadImage, n)
				}
				data := make([]byte, n)
				cr.bytes(data)
				run.Pages[j] = data
			}
			if cr.err == nil && hashRun(run.Pages) != want {
				return nil, fmt.Errorf("%w: data run at %d fails its content hash", ErrBadImage, start)
			}
		default:
			return nil, fmt.Errorf("%w: run kind %d", ErrBadImage, kind)
		}
		img.runs = append(img.runs, run)
	}
	if cr.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, cr.err)
	}
	return img, nil
}

// countWriter accumulates the byte count and the first error so the
// serializer body stays a straight-line extent walk.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countWriter) bytes(b []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(b)
	cw.n += int64(n)
	cw.err = err
}

func (cw *countWriter) u8(v uint8)   { cw.bytes([]byte{v}) }
func (cw *countWriter) u32(v uint32) { cw.bytes(binary.LittleEndian.AppendUint32(nil, v)) }
func (cw *countWriter) u64(v uint64) { cw.bytes(binary.LittleEndian.AppendUint64(nil, v)) }

// reader mirrors countWriter for the decode side.
type reader struct {
	r   io.Reader
	err error
}

func (cr *reader) bytes(b []byte) {
	if cr.err != nil {
		return
	}
	_, cr.err = io.ReadFull(cr.r, b)
}

func (cr *reader) u8() uint8 {
	var b [1]byte
	cr.bytes(b[:])
	return b[0]
}

func (cr *reader) u32() uint32 {
	var b [4]byte
	cr.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (cr *reader) u64() uint64 {
	var b [8]byte
	cr.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}
