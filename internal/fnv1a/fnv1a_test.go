package fnv1a

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

const page = 4096

// reference is the standard library's FNV-1a 64 of b.
func reference(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// check compares Bytes with the reference over b whole and split at mid,
// so a zero run that straddles two calls is folded correctly too.
func check(t *testing.T, b []byte, mid int) {
	t.Helper()
	want := reference(b)
	if got := Bytes(Offset, b); got != want {
		t.Fatalf("Bytes(%d bytes) = %#x, want %#x", len(b), got, want)
	}
	if got := Bytes(Bytes(Offset, b[:mid]), b[mid:]); got != want {
		t.Fatalf("Bytes split at %d of %d = %#x, want %#x", mid, len(b), got, want)
	}
}

// sparsePage is a page as a save finds it: a few written bytes, the rest
// zeroes.
func sparsePage(tag byte) []byte {
	p := make([]byte, page)
	copy(p, []byte{tag, 1, 2, 3, 4, 5, 6, 7})
	p[page/2+3] = tag
	return p
}

func densePage(rng *rand.Rand) []byte {
	p := make([]byte, page)
	rng.Read(p)
	return p
}

// seeds are the inputs both the table test and the fuzz corpus start from.
func seeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	dense := append(densePage(rng), densePage(rng)...)
	mixed := append(append(sparsePage(9), densePage(rng)...), make([]byte, page)...)
	return [][]byte{
		nil,
		{0},
		{1, 0, 0, 0, 0, 0, 0, 0, 0},
		make([]byte, 16*page), // a 64 KiB vbd chunk: several table folds
		make([]byte, page+5),
		sparsePage(1),
		append(sparsePage(2), sparsePage(3)...),
		dense,
		mixed,
	}
}

func TestBytesMatchesStdlib(t *testing.T) {
	for _, b := range seeds() {
		check(t, b, len(b)/2)
		check(t, b, len(b)/3)
	}
	// Every length up to three pages, over a buffer whose prefixes end in
	// zero runs, in nonzero words and in tails shorter than a word.
	buf := make([]byte, 3*page+7)
	for _, i := range []int{0, 9, 100, page - 1, page + 8, 2*page + 3, 3 * page} {
		buf[i] = byte(i) | 1
	}
	for n := 0; n <= len(buf); n++ {
		check(t, buf[:n], n/2)
	}
}

func TestUint64MatchesStdlib(t *testing.T) {
	var b [8]byte
	for _, v := range []uint64{0, 1, 2, 3, 0xff, 1 << 63, 0x0123456789abcdef} {
		binary.LittleEndian.PutUint64(b[:], v)
		if got, want := Uint64(Offset, v), reference(b[:]); got != want {
			t.Fatalf("Uint64(%#x) = %#x, want %#x", v, got, want)
		}
	}
}

// FuzzBytes compares Bytes with the standard library. The input is data
// with pad zero bytes spliced in at its middle, so the fuzzer explores zero
// runs of any length and alignment, not just the random bytes it favours.
func FuzzBytes(f *testing.F) {
	for _, b := range seeds() {
		f.Add(b, uint16(0))
	}
	f.Add([]byte{7}, uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, pad uint16) {
		mid := len(data) / 2
		b := make([]byte, 0, len(data)+int(pad))
		b = append(b, data[:mid]...)
		b = append(b, make([]byte, pad)...)
		b = append(b, data[mid:]...)
		check(t, b, mid)
	})
}
