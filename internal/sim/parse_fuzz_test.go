package sim_test

import (
	"testing"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// Spec parsers take CLI and grid input, so they must reject anything
// malformed with an error and never panic; an accepted spec must round-
// trip through Name() and yield a model whose draws terminate and stay
// within its bounds. Seed corpora live in testdata/fuzz/<target>.

func FuzzParseDelayModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := sim.ParseDelayModel(spec)
		if err != nil || m == nil {
			return
		}
		if m.MaxDelay() < 1 {
			t.Fatalf("%q: MaxDelay() = %d, want >= 1", spec, m.MaxDelay())
		}
		if again, err := sim.ParseDelayModel(m.Name()); err != nil || again != m {
			t.Fatalf("%q: Name() %q re-parses to %v, %v", spec, m.Name(), again, err)
		}
		var rng *xrand.Rand
		if m.Draws() {
			rng = xrand.New(1)
		}
		for i := 0; i < 300; i++ {
			if d := m.Delay(rng, i, i%5, i%7); d < 1 || d > m.MaxDelay() {
				t.Fatalf("%q: draw %d = %d, want in [1, %d]", spec, i, d, m.MaxDelay())
			}
		}
	})
}

func FuzzParseFaultModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := sim.ParseFaultModel(spec)
		if err != nil || m == nil {
			return
		}
		if again, err := sim.ParseFaultModel(m.Name()); err != nil || again != m {
			t.Fatalf("%q: Name() %q re-parses to %v, %v", spec, m.Name(), again, err)
		}
		var rng *xrand.Rand
		if m.Draws() {
			rng = xrand.New(1)
		}
		for i := 0; i < 300; i++ {
			m.Drop(rng, i, i%5, i%7)
		}
	})
}
