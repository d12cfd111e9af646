// Package fuzz reproduces the VM-fuzzing use case (§7.2): an AFL-style
// coverage-guided mutation engine plus a KFX-style harness that fuzzes a
// paravirtualized guest by cloning it, instrumenting the clone with
// breakpoints (clone_cow), running one input per iteration and restoring
// the dirtied memory (clone_reset). Baseline modes — booting a fresh VM
// per input, fuzzing a native Linux process, fuzzing a Linux kernel module
// — regenerate the other series of Fig. 9.
package fuzz

import (
	"fmt"
)

// rng is a small deterministic PRNG (xorshift32) so fuzzing runs are
// reproducible; the virtual-clock rules forbid math/rand seeds from time.
type rng struct{ s uint32 }

func newRNG(seed uint32) *rng {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	return &rng{s: seed}
}

func (r *rng) next() uint32 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 17
	r.s ^= r.s << 5
	return r.s
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint32(n))
}

// Mutator produces new inputs from corpus entries with AFL's classic
// strategies: bit flips, byte flips, arithmetic, interesting values,
// havoc splices.
//
// Mutate and Splice write their result into one buffer the Mutator keeps
// and reuses, so a warm fuzzing loop allocates no input. The result is the
// caller's to read until the next Mutate or Splice call on the same
// Mutator, which overwrites it; a caller that keeps an input (the corpus)
// copies it, and so does one that hands a result back to the same
// Mutator. Neither call writes to its arguments.
type Mutator struct {
	r   *rng
	buf []byte
}

// NewMutator creates a deterministic mutator.
func NewMutator(seed uint32) *Mutator { return &Mutator{r: newRNG(seed)} }

var interesting = []byte{0x00, 0x01, 0x7F, 0x80, 0xFF}

// Mutate derives a new input from base (never mutating base in place). The
// result is valid until the next Mutate or Splice call.
func (m *Mutator) Mutate(base []byte) []byte {
	out := append(m.buf[:0], base...)
	if len(out) == 0 {
		out = append(out, 0)
	}
	switch m.r.intn(5) {
	case 0: // single bit flip
		i := m.r.intn(len(out))
		out[i] ^= 1 << uint(m.r.intn(8))
	case 1: // byte flip
		out[m.r.intn(len(out))] ^= 0xFF
	case 2: // arithmetic
		i := m.r.intn(len(out))
		out[i] += byte(m.r.intn(35) - 17)
	case 3: // interesting value
		out[m.r.intn(len(out))] = interesting[m.r.intn(len(interesting))]
	default: // havoc: random insert or truncate
		if m.r.intn(2) == 0 && len(out) < 4096 {
			i := m.r.intn(len(out) + 1)
			out = append(out, 0)
			copy(out[i+1:], out[i:])
			out[i] = byte(m.r.next())
		} else if len(out) > 1 {
			out = out[:1+m.r.intn(len(out)-1)]
		}
	}
	m.buf = out
	return out
}

// Splice combines two corpus entries (AFL's splice stage). The result is
// valid until the next Mutate or Splice call.
func (m *Mutator) Splice(a, b []byte) []byte {
	out := m.buf[:0]
	switch {
	case len(a) == 0:
		out = append(out, b...)
	case len(b) == 0:
		out = append(out, a...)
	default:
		cut := 1 + m.r.intn(len(a))
		out = append(out, a[:cut]...)
		out = append(out, b[m.r.intn(len(b)):]...)
	}
	m.buf = out
	return out
}

// Coverage is an AFL-style edge bitmap.
type Coverage struct {
	bits  []byte
	edges int
}

// NewCoverage creates a bitmap of the given size (AFL uses 64 KiB).
func NewCoverage(size int) *Coverage {
	return &Coverage{bits: make([]byte, size)}
}

// Record hashes an (from, to) edge into the map and reports whether it was
// new coverage.
func (c *Coverage) Record(from, to uint32) bool {
	h := (from>>1 ^ to) % uint32(len(c.bits)*8)
	byteIdx, bit := h/8, byte(1)<<(h%8)
	if c.bits[byteIdx]&bit != 0 {
		return false
	}
	c.bits[byteIdx] |= bit
	c.edges++
	return true
}

// Edges reports the number of distinct edges seen.
func (c *Coverage) Edges() int { return c.edges }

// CorpusEntry is one saved input.
type CorpusEntry struct {
	Data     []byte
	NewEdges int
}

// Corpus is the set of coverage-increasing inputs.
type Corpus struct {
	entries []CorpusEntry
}

// Add appends an entry.
func (c *Corpus) Add(e CorpusEntry) { c.entries = append(c.entries, e) }

// Len reports the corpus size.
func (c *Corpus) Len() int { return len(c.entries) }

// Pick returns entry i modulo the corpus size.
func (c *Corpus) Pick(i int) CorpusEntry {
	if len(c.entries) == 0 {
		return CorpusEntry{Data: []byte{0}}
	}
	return c.entries[i%len(c.entries)]
}

// String summarizes the corpus.
func (c *Corpus) String() string {
	return fmt.Sprintf("corpus(%d entries)", len(c.entries))
}
