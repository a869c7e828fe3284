package counting

import (
	"math"
	"sort"

	"byzcount/internal/sim"
)

// This file implements the two further non-Byzantine-resilient estimation
// approaches that Section 1.2 discusses and dismisses:
//
//   - KMVProc: a "birthday paradox" estimator in the spirit of [21]:
//     every node draws a uniform random hash and the network floods the k
//     minimum values; the k-th minimum estimates n (a k-minimum-values
//     sketch). One Byzantine node flooding tiny values inflates the
//     estimate arbitrarily.
//   - ReturnWalkProc: the random-walk return-time estimator: in a
//     d-regular graph the expected return time of a random walk to its
//     origin is exactly n, so averaging k return times estimates n. The
//     paper notes "long random walks have a high chance of encountering a
//     Byzantine node" — a single absorbing node swallows walks and skews
//     the estimate.

// KMVHash is the flooded payload of the birthday estimator: the k
// smallest hashes seen so far.
type KMVHash struct {
	Mins []uint64
}

// SizeBits counts 64 bits per hash.
func (k KMVHash) SizeBits() int { return 16 + 64*len(k.Mins) }

// KMVProc floods a k-minimum-values sketch of the nodes' random hashes.
type KMVProc struct {
	k           int
	quietRounds int
	mins        []uint64 // sorted ascending, at most k values
	quiet       int
	drawn       bool
	decided     bool
	decRound    int
}

var _ Estimator = (*KMVProc)(nil)

// NewKMVProc returns a birthday-paradox estimator with sketch size k.
func NewKMVProc(k, quietRounds int) *KMVProc {
	if k < 2 {
		k = 2
	}
	if quietRounds < 1 {
		quietRounds = 1
	}
	return &KMVProc{k: k, quietRounds: quietRounds}
}

// EstimateN returns (k-1) * 2^64 / kthMin, the standard KMV estimator,
// or +Inf before the sketch fills.
func (p *KMVProc) EstimateN() float64 {
	if len(p.mins) < p.k {
		return math.Inf(1)
	}
	kth := float64(p.mins[p.k-1])
	if kth <= 0 {
		return math.Inf(1)
	}
	return float64(p.k-1) * math.Exp2(64) / kth
}

// Outcome reports round(log2(n-hat)) for comparability with the other
// protocols.
func (p *KMVProc) Outcome() Outcome {
	est := 0
	if n := p.EstimateN(); !math.IsInf(n, 1) && n >= 1 {
		est = int(math.Round(math.Log2(n)))
	}
	return Outcome{Decided: p.decided, Estimate: est, Round: p.decRound, Exited: p.decided}
}

// Halted reports termination.
func (p *KMVProc) Halted() bool { return p.decided }

// Step merges incoming sketches and floods improvements.
func (p *KMVProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if !p.drawn {
		p.drawn = true
		p.insert(env.Rand().Uint64())
		return env.Broadcast(KMVHash{Mins: append([]uint64(nil), p.mins...)})
	}
	improved := false
	for _, m := range in {
		sketch, ok := m.Payload.(KMVHash)
		if !ok {
			continue
		}
		for _, h := range sketch.Mins {
			if p.insert(h) {
				improved = true
			}
		}
	}
	if improved {
		p.quiet = 0
		return env.Broadcast(KMVHash{Mins: append([]uint64(nil), p.mins...)})
	}
	p.quiet++
	if p.quiet >= p.quietRounds {
		p.decided = true
		p.decRound = round
	}
	return nil
}

// insert adds h to the sketch if it improves it; returns true on change.
func (p *KMVProc) insert(h uint64) bool {
	i := sort.Search(len(p.mins), func(i int) bool { return p.mins[i] >= h })
	if i < len(p.mins) && p.mins[i] == h {
		return false // duplicate
	}
	if len(p.mins) == p.k {
		if i == p.k {
			return false // larger than everything retained
		}
		p.mins = p.mins[:p.k-1]
	}
	p.mins = append(p.mins, 0)
	copy(p.mins[i+1:], p.mins[i:])
	p.mins[i] = h
	return true
}

// WalkToken is a random-walk token for the return-time estimator.
type WalkToken struct {
	Origin sim.NodeID
	Steps  int
}

// SizeBits counts the origin and step fields.
func (WalkToken) SizeBits() int { return 16 + 64 + 32 }

// ReturnWalkProc estimates n from random-walk return times: it launches
// tokens (one at a time), forwards others' tokens one uniform hop per
// round, and upon a token's return records its step count. After
// `samples` returns it decides on round(log2(mean return time)) — in a
// d-regular graph the expected return time is exactly n.
type ReturnWalkProc struct {
	samples  int
	maxSteps int

	inFlight bool
	returns  []int
	decided  bool
	decRound int
	launched int
}

var _ Estimator = (*ReturnWalkProc)(nil)

// NewReturnWalkProc returns an estimator that averages `samples` return
// times, abandoning walks longer than maxSteps (a lost-token guard).
func NewReturnWalkProc(samples, maxSteps int) *ReturnWalkProc {
	if samples < 1 {
		samples = 1
	}
	if maxSteps < 4 {
		maxSteps = 4
	}
	return &ReturnWalkProc{samples: samples, maxSteps: maxSteps}
}

// MeanReturnTime returns the average of the recorded return times (NaN
// before the first return).
func (p *ReturnWalkProc) MeanReturnTime() float64 {
	if len(p.returns) == 0 {
		return math.NaN()
	}
	sum := 0
	for _, r := range p.returns {
		sum += r
	}
	return float64(sum) / float64(len(p.returns))
}

// Outcome reports round(log2(mean return time)).
func (p *ReturnWalkProc) Outcome() Outcome {
	est := 0
	if m := p.MeanReturnTime(); !math.IsNaN(m) && m >= 1 {
		est = int(math.Round(math.Log2(m)))
	}
	return Outcome{Decided: p.decided, Estimate: est, Round: p.decRound, Exited: p.decided}
}

// Halted always returns false: a node that decided must keep forwarding
// other nodes' walks, otherwise early deciders become absorbing states
// and destroy everyone else's return times. (This forwarding obligation
// is itself a fragility of the approach: a single node that stops — let
// alone a Byzantine one — biases every walk that would have crossed it.)
func (p *ReturnWalkProc) Halted() bool { return false }

// Step forwards foreign tokens and manages the node's own walk.
func (p *ReturnWalkProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	out := env.Scratch()
	if len(env.Neighbors) == 0 {
		return out // an isolated vertex receives nothing and has nowhere to walk
	}
	for _, m := range in {
		tok, ok := m.Payload.(WalkToken)
		if !ok {
			continue
		}
		if tok.Origin == env.ID {
			// Our token came home.
			p.inFlight = false
			if !p.decided {
				p.returns = append(p.returns, tok.Steps)
				if len(p.returns) >= p.samples {
					p.decided = true
					p.decRound = round
				}
			}
			continue
		}
		if tok.Steps >= p.maxSteps {
			continue // abandon overlong walks
		}
		out = append(out, sim.Outgoing{
			To:      env.Neighbors[env.Rand().Intn(len(env.Neighbors))],
			Payload: WalkToken{Origin: tok.Origin, Steps: tok.Steps + 1},
		})
	}
	if !p.decided && !p.inFlight {
		p.inFlight = true
		p.launched++
		out = append(out, sim.Outgoing{
			To:      env.Neighbors[env.Rand().Intn(len(env.Neighbors))],
			Payload: WalkToken{Origin: env.ID, Steps: 1},
		})
	}
	return out
}
