// Package fnv1a is the one FNV-1a 64 implementation behind every content
// hash in the tree: image cache keys, vbd base-chunk dedup and the
// cluster's chunk identities, which pick bond slaves and so are
// virtual-time inputs. Its output is bit-identical to
// hash/fnv's New64a. It is hand-written, not hash/maphash (whose seed
// changes per process), so a key is the same across runs and hosts, and it
// is cheap on the mostly-zero pages that saved images are made of.
//
// FNV-1a folds a byte c as h = (h ^ c) * prime, so a zero byte is a bare
// multiply and k zero bytes fold to h * prime^k. Bytes reads 8-byte words
// and folds each run of zero words with one multiply by a tabulated power;
// every nonzero word goes through the byte loop.
package fnv1a

import (
	"bytes"
	"encoding/binary"
)

// Offset is the FNV-1a 64 offset basis: the hash of no bytes.
const Offset uint64 = 14695981039346656037

const (
	prime = 1099511628211
	// maxRun is the most zero words one table multiply folds: a 4 KiB
	// page. A longer run takes one multiply per maxRun words.
	maxRun = 512
)

// zeroWords[n] is prime^(8n), the fold of n zero words.
var zeroWords = func() (t [maxRun + 1]uint64) {
	word := uint64(1)
	for i := 0; i < 8; i++ {
		word *= prime
	}
	t[0] = 1
	for n := 1; n <= maxRun; n++ {
		t[n] = t[n-1] * word
	}
	return t
}()

// zeroBlock is the longest stretch of zero words one table multiply folds.
var zeroBlock [8 * maxRun]byte

// Bytes folds b into h and returns the result; Bytes(Offset, b) is the
// FNV-1a 64 hash of b. A zero word usually starts a long zero stretch, so
// Bytes first compares the whole stretch one multiply can fold with
// zeroBlock (one memequal) and counts the zero words one by one only when
// that compare fails.
func Bytes(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			for _, c := range b[:8] {
				h = (h ^ uint64(c)) * prime
			}
			b = b[8:]
			continue
		}
		n := min(maxRun, len(b)/8)
		if !bytes.Equal(b[:8*n], zeroBlock[:8*n]) {
			n = 1
			for rest := b[8:]; n < maxRun && len(rest) >= 8 && binary.LittleEndian.Uint64(rest) == 0; rest = rest[8:] {
				n++
			}
		}
		h *= zeroWords[n]
		b = b[8*n:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Uint64 folds v's eight bytes into h, least significant first.
func Uint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	return h
}
