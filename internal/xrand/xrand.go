// Package xrand provides deterministic, splittable random-number streams
// for reproducible simulations.
//
// Every experiment in this repository is driven by a single root seed. The
// root stream is split into independent sub-streams (one per concern: graph
// generation, protocol coins, adversary choices, ...) so that changing how
// many random numbers one concern draws does not perturb the others. This
// makes table rows reproducible and diffable across code changes.
//
// Streams are math/rand's *rand.Rand on this package's own source, which
// matches the stdlib's bit for bit but seeds in O(1) (see source). Child
// seeds come from a SplitMix64-style derivation, sufficient for
// simulation purposes. It is NOT suitable for cryptographic use.
package xrand

import (
	"math/rand"
)

// Rand is a deterministic random stream. The zero value is not usable; use
// New or Split to obtain one.
type Rand struct {
	src  *rand.Rand
	seed uint64
}

// New returns a stream seeded from seed. Two streams created with the same
// seed produce identical sequences.
func New(seed uint64) *Rand {
	src := new(source)
	src.Seed(int64(mix(seed)))
	return &Rand{src: rand.New(src), seed: seed}
}

// Seed returns the seed this stream was created from.
func (r *Rand) Seed() uint64 { return r.seed }

// Split derives an independent sub-stream identified by label. Splitting is
// a pure function of (parent seed, label): it does not consume randomness
// from the parent, so the parent's future output is unaffected.
func (r *Rand) Split(label string) *Rand {
	return New(r.splitSeed(label))
}

// SplitInto derives the same sub-stream Split(label) would, but re-seeds
// dst in place instead of allocating a fresh stream, and returns dst (a
// fresh stream is allocated only when dst is nil). Callers that re-derive
// the same labelled stream per event — e.g. the churn driver's per-leave
// and per-join streams — use this to keep steady-state rounds
// allocation-free while producing byte-identical draws.
func (r *Rand) SplitInto(label string, dst *Rand) *Rand {
	seed := r.splitSeed(label)
	if dst == nil {
		return New(seed)
	}
	dst.Reseed(seed)
	return dst
}

// Reseed re-initializes r in place to the state New(seed) creates,
// without allocating: the source keeps any register it already built.
func (r *Rand) Reseed(seed uint64) {
	r.seed = seed
	r.src.Seed(int64(mix(seed)))
}

// splitSeed is the pure (parent seed, label) -> child seed derivation
// shared by Split and SplitInto.
func (r *Rand) splitSeed(label string) uint64 {
	h := r.seed
	for _, b := range []byte(label) {
		h = mix(h ^ uint64(b))
	}
	return mix(h ^ 0x9e3779b97f4a7c15)
}

// SplitN derives an independent sub-stream identified by label and index,
// e.g. one stream per trial or per node. It produces exactly the stream
// Split(label).Split(itoa(n)) would, but derives the child seed with
// pure arithmetic instead of materializing the intermediate labelled
// stream — one source allocation per call, not two, which matters when
// an engine derives a stream per node.
func (r *Rand) SplitN(label string, n int) *Rand {
	mid := Rand{seed: r.splitSeed(label)}
	return New(mid.splitSeed(itoa(n)))
}

// mix is the SplitMix64 finalizer; it decorrelates nearby seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// itoa converts n to a decimal string without importing strconv (keeps the
// dependency surface of this tiny package minimal).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Geometric returns the number of fair-coin flips needed to see the first
// heads: a geometric random variable with support {1, 2, 3, ...} and
// success probability 1/2. This is the X_u variable of the geometric
// network-size estimation protocol discussed in Section 1.2 of the paper.
func (r *Rand) Geometric() int {
	flips := 1
	for r.src.Int63()&1 == 0 {
		flips++
	}
	return flips
}

// GeometricP returns a geometric random variable with success probability
// p in (0, 1]: the number of trials up to and including the first success.
func (r *Rand) GeometricP(p float64) int {
	if p >= 1 {
		return 1
	}
	if !(p > 0) { // also NaN, for which no coin ever lands
		panic("xrand: GeometricP requires p in (0, 1]")
	}
	n := 1
	for !r.Bernoulli(p) {
		n++
	}
	return n
}

// Exponential returns an exponential random variable with rate lambda.
// Used by the support-estimation baseline.
func (r *Rand) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exponential requires lambda > 0")
	}
	return r.src.ExpFloat64() / lambda
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher-Yates over an index map: O(k) memory.
	chosen := make([]int, 0, k)
	remap := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + r.src.Intn(n-i)
		vj, ok := remap[j]
		if !ok {
			vj = j
		}
		vi, ok := remap[i]
		if !ok {
			vi = i
		}
		remap[j] = vi
		chosen = append(chosen, vj)
	}
	return chosen
}

// ID returns a uniform random 64-bit node identifier. Per the paper's model
// (Section 2), IDs are drawn from an arbitrarily large set whose size is
// unknown, so they leak no information about the network size.
func (r *Rand) ID() uint64 { return r.src.Uint64() }
