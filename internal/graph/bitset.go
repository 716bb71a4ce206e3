package graph

import "math/bits"

// bitset is a fixed-capacity bitset over word-sized chunks, used by the
// exact clique and independent-set solvers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// andWith sets b = b & other in place.
func (b bitset) andWith(other bitset) {
	for i := range b {
		b[i] &= other[i]
	}
}

// andNotWith sets b = b &^ other in place.
func (b bitset) andNotWith(other bitset) {
	for i := range b {
		b[i] &^= other[i]
	}
}

// count returns the number of set bits.
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// firstSet returns the index of the lowest set bit, or -1 if empty.
func (b bitset) firstSet() int {
	for i, w := range b {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
