package xrand

// source is math/rand's additive lagged Fibonacci generator (the
// stdlib's rngSource), reproduced bit for bit for every int64 seed but
// seeded in O(1) time and space.
//
// The stdlib seeds by stepping the LCG x <- 48271*x mod (2^31-1) from
// the reduced seed x0 and packing outputs 21+3i, 22+3i and 23+3i into
// word i of its 607-word register, XORed with rngCooked[i]. Output c is
// x0*48271^c mod (2^31-1), so a word costs three multiply-mods against
// lcgPow. Draw k <= 273 adds words 334-k and 607-k, which no earlier
// draw has written, so it is computed on the fly. Draw 274 builds the
// register (every word, then the 273 feed writes replayed) and the
// stdlib loop runs from there.
type source struct {
	x0        uint64 // reduced seed, in [1, 2^31-2]
	drawn     int    // draws since Seed, saturating at rngTap+1 once vec is live
	tap, feed int
	vec       *[rngLen]int64 // allocated on the first materialization; kept by Seed
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// lcgPow[c] is 48271^c mod (2^31-1), for every output c seeding reads.
var lcgPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for c := 1; c < len(p); c++ {
		p[c] = p[c-1] * 48271 % int32max
	}
	return p
}()

// mulmod returns a*b mod (2^31-1) for a, b in [1, 2^31-2]. The modulus
// is prime, so the product is never 0 mod it and one fold suffices.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed reduces seed as rngSource.Seed does and rewinds to the first draw.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.drawn = 0, 0
}

// word returns word i of the freshly seeded register.
func (s *source) word(i int) int64 {
	c := 21 + 3*i
	u := int64(mulmod(s.x0, lcgPow[c])) << 40
	u ^= int64(mulmod(s.x0, lcgPow[c+1])) << 20
	u ^= int64(mulmod(s.x0, lcgPow[c+2]))
	return u ^ rngCooked[i]
}

// Uint64 returns the next value. A lazy stream keeps tap at 0, so its
// draws take the wrap branch, which the stdlib takes once per 607 draws.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		if s.drawn <= rngTap {
			return s.lazy()
		}
		s.tap += rngLen
	}
	return uint64(s.step())
}

// Int63 repeats Uint64 rather than calling it, so a warm draw costs one
// call, as in the stdlib.
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		if s.drawn <= rngTap {
			return int64(s.lazy() & (1<<63 - 1))
		}
		s.tap += rngLen
	}
	return s.step() & (1<<63 - 1)
}

// step is the stdlib loop's body after tap has moved.
func (s *source) step() int64 {
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// lazy returns draw drawn+1 of a stream that has no register yet; draw
// rngTap+1 builds the register and continues on it.
func (s *source) lazy() uint64 {
	if s.drawn == rngTap {
		s.materialize()
		return s.Uint64()
	}
	s.tap = 0
	s.drawn++
	return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
}

// materialize builds the register as the stdlib holds it after rngTap draws.
func (s *source) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	s.drawn = rngTap + 1
}
