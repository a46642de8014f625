package core

// bitset is a word-packed bit vector indexed by link id. The planner
// keeps the per-step link pool here so that starting a fresh time step,
// claiming a path and intersecting a speculative search's read set
// against the links committed so far are whole-word operations instead
// of per-link scans.
type bitset []uint64

// newBitset returns a bitset able to hold n bits, all zero.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// test reports whether bit i is set.
func (b bitset) test(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// set sets bit i.
func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

// clear clears bit i.
func (b bitset) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// fill sets every word to all-ones. Bits past the logical length are
// never tested, so leaving them set is harmless.
func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// zero clears every word.
func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

// intersectsDiff reports whether b shares a set bit with the symmetric
// difference of x and y — the bits where the two sets disagree. The
// sharded merge uses it to ask "did this search read any link whose
// shard-pool state differs from the live pool?" in one pass.
func (b bitset) intersectsDiff(x, y bitset) bool {
	for i, w := range b {
		if w&(x[i]^y[i]) != 0 {
			return true
		}
	}
	return false
}
