package graph

// Bits is a fixed-size bitset over vertex or arc IDs. The routing tables
// store their per-pair router and link masks this way: one bit per element
// instead of one byte, and a whole-mask intersection test is a word-wise
// AND. Solver parameters of this type read nil as "no restriction".
type Bits []uint64

// NewBits returns an empty bitset able to hold IDs 0..n-1.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether i is in the set.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds i to the set.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear empties the set in place.
func (b Bits) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// Intersects reports whether b and o share an element; a nil operand is
// empty.
func (b Bits) Intersects(o Bits) bool {
	if len(o) < len(b) {
		b = b[:len(o)]
	}
	for i, w := range b {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}
