package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// matchStdlib draws n values from src and ref and reports the first
// mismatch; bit i%64 of pattern picks Int63 (0) or Uint64 (1) for draw i.
func matchStdlib(src *source, ref rand.Source64, pattern uint64, n int) error {
	for i := 0; i < n; i++ {
		if pattern>>(i%64)&1 == 0 {
			if got, want := src.Int63(), ref.Int63(); got != want {
				return fmt.Errorf("draw %d (Int63): got %d, want %d", i+1, got, want)
			}
		} else if got, want := src.Uint64(), ref.Uint64(); got != want {
			return fmt.Errorf("draw %d (Uint64): got %d, want %d", i+1, got, want)
		}
	}
	return nil
}

// TestSourceMatchesStdlib pins source to rand.NewSource on the seeds
// whose reduction is special and on random ones. 2,000 draws per seed
// cross the lazy/materialized boundary at draw 274 and wrap the
// 607-word register three times. One source serves every seed, so the
// register kept across Seed is exercised too.
func TestSourceMatchesStdlib(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, 3*m + 1, m - 1, m + 1, -m - 1,
		m << 32, -(m << 32), (math.MaxInt64 / m) * m, math.MinInt64,
		math.MaxInt64, 89482311, -89482311, 89482311 + m,
	}
	gen := rand.New(rand.NewSource(20261017))
	for i := 0; i < 240; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	src := new(source)
	for _, seed := range seeds {
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		if err := matchStdlib(src, ref, gen.Uint64(), 2000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandMethodsMatchStdlib checks every Rand method against a stream
// built on rand.NewSource with the same derived seed.
func TestRandMethodsMatchStdlib(t *testing.T) {
	methods := map[string]func(r *Rand) any{
		"Intn":        func(r *Rand) any { return r.Intn(1000) },
		"Int63":       func(r *Rand) any { return r.Int63() },
		"Uint64":      func(r *Rand) any { return r.Uint64() },
		"Float64":     func(r *Rand) any { return r.Float64() },
		"Bernoulli":   func(r *Rand) any { return r.Bernoulli(0.3) },
		"Geometric":   func(r *Rand) any { return r.Geometric() },
		"GeometricP":  func(r *Rand) any { return r.GeometricP(0.2) },
		"Exponential": func(r *Rand) any { return r.Exponential(1.5) },
		"Perm":        func(r *Rand) any { return r.Perm(40) },
		"Shuffle": func(r *Rand) any {
			s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
			r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			return s
		},
		"Sample": func(r *Rand) any { return r.Sample(100, 12) },
		"ID":     func(r *Rand) any { return r.ID() },
	}
	for name, draw := range methods {
		for _, seed := range []uint64{0, 7, 42, 1 << 40} {
			got := New(seed)
			want := &Rand{src: rand.New(rand.NewSource(int64(mix(seed)))), seed: seed}
			for i := 0; i < 700; i++ {
				if g, w := fmt.Sprint(draw(got)), fmt.Sprint(draw(want)); g != w {
					t.Fatalf("%s seed %d call %d: got %s, want %s", name, seed, i, g, w)
				}
			}
		}
	}
}

// TestSplitNFootprint pins the point of the lazy source: a stream that
// never reaches draw 274 holds no register, so a per-node stream costs
// about a hundred bytes, not the stdlib's 4.9 KiB.
func TestSplitNFootprint(t *testing.T) {
	const streams = 10_000
	root := New(5)
	keep := make([]*Rand, streams)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = root.SplitN("node", i)
		for j := 0; j < i%(rngTap+1); j++ {
			keep[i].Uint64()
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / streams
	t.Logf("%.0f B per stream", per)
	if per >= 256 {
		t.Errorf("SplitN streams drawing <= %d values allocate %.0f B each, want < 256", rngTap, per)
	}
	runtime.KeepAlive(keep)
}

// FuzzSource checks source against rand.NewSource for any seed and
// draw count; the seed corpus lives in testdata/fuzz/FuzzSource.
func FuzzSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		src := new(source)
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		if err := matchStdlib(src, ref, uint64(seed), int(draws)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
