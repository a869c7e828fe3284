package byzantine

import (
	"byzcount/internal/counting"
	"byzcount/internal/sim"
)

// This file implements the one-node attacks that destroy the baseline
// protocols of Section 1.2, demonstrating why Byzantine counting needs
// the machinery of the paper's algorithms.

// GeoMaxFaker floods an absurd maximum through the geometric-distribution
// protocol. One such node suffices to push every honest estimate to
// FakeValue ("Byzantine nodes can fake the maximum value", Section 1.2).
type GeoMaxFaker struct {
	FakeValue int
	Period    int // broadcast every Period rounds (>=1)
}

var _ sim.Proc = (*GeoMaxFaker)(nil)

// Halted is always false.
func (g *GeoMaxFaker) Halted() bool { return false }

// Step periodically floods the fake maximum.
func (g *GeoMaxFaker) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	period := g.Period
	if period < 1 {
		period = 1
	}
	if round%period == 0 {
		return env.Broadcast(counting.GeoMax{Value: g.FakeValue})
	}
	return nil
}

// SupportMinFaker floods near-zero minima through the support-estimation
// protocol, driving the size estimate toward infinity.
type SupportMinFaker struct {
	K      int     // coordinate count, must match the honest protocol's k
	Value  float64 // the fake minimum (tiny positive)
	Period int
}

var _ sim.Proc = (*SupportMinFaker)(nil)

// Halted is always false.
func (s *SupportMinFaker) Halted() bool { return false }

// Step periodically floods fake minima.
func (s *SupportMinFaker) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	period := s.Period
	if period < 1 {
		period = 1
	}
	if round%period != 0 {
		return nil
	}
	mins := make([]float64, s.K)
	v := s.Value
	if v <= 0 {
		v = 1e-12
	}
	for i := range mins {
		mins[i] = v
	}
	return env.Broadcast(counting.SupportMin{Mins: mins})
}

// KMVPoisoner floods tiny hash values through the birthday-paradox (KMV)
// estimator, driving the size estimate toward 2^64.
type KMVPoisoner struct {
	K      int
	Period int
}

var _ sim.Proc = (*KMVPoisoner)(nil)

// Halted is always false.
func (p *KMVPoisoner) Halted() bool { return false }

// Step periodically floods a sketch of the K smallest possible hashes.
func (p *KMVPoisoner) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	period := p.Period
	if period < 1 {
		period = 1
	}
	if round%period != 0 {
		return nil
	}
	mins := make([]uint64, p.K)
	for i := range mins {
		mins[i] = uint64(i + 1)
	}
	return env.Broadcast(counting.KMVHash{Mins: mins})
}

// TreeCountInflater participates in the spanning-tree count but reports a
// wildly inflated subtree, corrupting the exact count — the reason the
// "just build a spanning tree" approach (Section 1.2) has no Byzantine
// tolerance whatsoever.
type TreeCountInflater struct {
	Inflation int

	joined    bool
	depth     int
	parent    sim.NodeID
	hasParent bool
	reported  bool
	forwarded bool
}

var _ sim.Proc = (*TreeCountInflater)(nil)

// Halted is always false.
func (t *TreeCountInflater) Halted() bool { return false }

// Step joins the BFS tree normally but convergecasts Inflation instead of
// a truthful subtree count.
func (t *TreeCountInflater) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	out := env.Scratch()
	for _, m := range in {
		switch msg := m.Payload.(type) {
		case counting.TreeJoin:
			if !t.joined {
				t.joined = true
				t.depth = msg.Depth + 1
				t.parent = m.FromID
				t.hasParent = true
				out = env.AppendBroadcast(out, counting.TreeJoin{Depth: t.depth})
				out = env.AppendBroadcast(out, counting.TreeParent{Parent: m.FromID})
			}
		case counting.TreeTotal:
			// Forward the poisoned total once, as honest nodes do:
			// relaying every copy lets adjacent inflaters echo it back
			// and forth, doubling the traffic every round.
			if !t.forwarded {
				t.forwarded = true
				out = env.AppendBroadcast(out, msg)
			}
		}
	}
	if t.joined && t.hasParent && !t.reported {
		t.reported = true
		for k, id := range env.NeighborIDs {
			if id == t.parent {
				out = append(out, sim.Outgoing{
					To:      env.Neighbors[k],
					Payload: counting.TreeCount{Count: t.Inflation},
				})
				break
			}
		}
	}
	return out
}
