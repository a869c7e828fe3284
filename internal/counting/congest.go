package counting

import (
	"byzcount/internal/sim"
)

// Beacon is the beacon message of Algorithm 2: an origin ID plus the path
// field listing the forwarders the message visited. Honest receivers
// append the engine-stamped sender ID before forwarding, so the suffix of
// the path written by honest nodes is always truthful; only prefixes that
// passed through Byzantine nodes can be bogus (Section 5, "Beacon
// Messages and Path Fields").
type Beacon struct {
	Origin sim.NodeID
	Path   []sim.NodeID
}

// SizeBits counts the origin, the path IDs, and a small tag. A beacon is
// a "small-sized message" as long as its path stays O(log n) long.
//
// Beacons travel as *Beacon and are read-only to receivers: a forwarder
// builds a new beacon rather than writing through the one it received.
func (b *Beacon) SizeBits() int { return 16 + 64 + 64*len(b.Path) }

// Continue is the keep-going signal broadcast by undecided nodes at the
// end of each iteration and forwarded for i+3 rounds (line 35).
type Continue struct{}

// SizeBits is the constant tag size of a continue message.
func (Continue) SizeBits() int { return 16 }

// CongestParams configures Algorithm 2.
type CongestParams struct {
	// Schedule fixes the phase structure (start phase c, gamma).
	Schedule Schedule
	// C1 is the activation constant of line 5.
	C1 float64
	// Epsilon is the blacklist-suffix parameter of equation (3); see
	// DeriveEpsilon.
	Epsilon float64
	// MaxPhase forces a decision once the phase counter exceeds it — a
	// safety net for adversaries that would otherwise inflate the phase
	// counter without bound in a finite simulation. 0 disables it.
	MaxPhase int
	// DisableBlacklist turns off lines 20-21 and 31-32 for the E7
	// ablation: shortestPath accepts any beacon and nothing is ever
	// blacklisted.
	DisableBlacklist bool
	// UpdateOnReentry, when set, lets a decided node that is reactivated
	// by continue messages raise its recorded estimate to the phase at
	// which it finally exits (one reading of line 44). The default keeps
	// the first decision, matching the irrevocability of Definition 2.
	UpdateOnReentry bool
}

// DefaultCongestParams returns the parameter set used across the
// experiments: gamma = 0.55 (so tolerated Byzantine count is n^0.45,
// consistent with B(n) = n^(1/2-xi)), delta = 0.1, c = 2, c1 = 4.
func DefaultCongestParams(d int) CongestParams {
	gamma := 0.55
	return CongestParams{
		Schedule: Schedule{StartPhase: 2, Gamma: gamma},
		C1:       4,
		Epsilon:  DeriveEpsilon(gamma, 0.1, d),
		MaxPhase: 30,
	}
}

// CongestProc is the per-node process of Algorithm 2. Create one per
// honest vertex with NewCongestProc.
type CongestProc struct {
	params  CongestParams
	locator Locator

	decided  bool
	estimate int
	decRound int
	exited   bool

	lastPhase int // phase of the previous step, to reset blacklists

	blacklist idSet

	spSet bool
	sp    []sim.NodeID

	receivedContinue  bool
	forwardedContinue bool

	// ids and beacons are the arena chunks that forwarded paths and
	// beacon headers are carved from (see carvePath and newBeacon).
	ids     []sim.NodeID
	beacons []Beacon
}

var _ Estimator = (*CongestProc)(nil)

// NewCongestProc returns a fresh process with the given parameters.
func NewCongestProc(params CongestParams) *CongestProc {
	return &CongestProc{
		params:    params,
		locator:   NewLocator(params.Schedule),
		lastPhase: -1,
	}
}

// Outcome reports the node's decision state.
func (c *CongestProc) Outcome() Outcome {
	return Outcome{Decided: c.decided, Estimate: c.estimate, Round: c.decRound, Exited: c.exited}
}

// Halted reports whether the node exited the protocol for good.
func (c *CongestProc) Halted() bool { return c.exited }

// Step advances the node by one synchronous round.
func (c *CongestProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	loc := c.locator.Locate(round)
	i := loc.Phase
	suffix := BlacklistSuffix(i, c.params.Epsilon)

	// Phase transition: reset the phase blacklist (line 2).
	if i != c.lastPhase {
		c.lastPhase = i
		c.blacklist.reset()
	}
	// Iteration start: reset shortestPath (line 4).
	if loc.Offset == 0 {
		c.spSet = false
		c.sp = nil
	}

	// out is the env's reusable scratch buffer: building the round's
	// output appends into it and allocates nothing once warm.
	out := env.Scratch()

	beaconWindowEnd := i + 2 // offsets 0..i+1 send beacons; receipt through i+2

	switch {
	case loc.Offset == 0:
		// Line 5: become active with probability c1*i/d^i.
		if c.params.MaxPhase > 0 && i > c.params.MaxPhase && !c.decided {
			c.decide(i, round)
			break
		}
		p := ActivationProbability(c.params.C1, i, env.Degree)
		if env.Rand().Bernoulli(p) {
			c.spSet = true
			c.sp = c.carvePath(1)
			c.sp[0] = env.ID
			out = env.AppendBroadcast(out, c.newBeacon(env.ID, nil))
		}

	case loc.Offset <= beaconWindowEnd:
		// Beacon receive window. Pick one beacon (line 14), append the
		// true sender ID (line 16), maybe accept it (lines 20-25), and
		// forward it while transmission is still allowed (lines 17-19).
		// A beacon that is neither forwarded nor a candidate for
		// shortestPath is dropped without building its path.
		forward := loc.Offset <= i+1
		if b, fromID, ok := firstBeacon(in); ok && (forward || !c.spSet) {
			path := c.carvePath(len(b.Path) + 1)
			copy(path, b.Path)
			path[len(b.Path)] = fromID
			if forward {
				out = env.AppendBroadcast(out, c.newBeacon(b.Origin, path))
			}
			if !c.spSet && c.acceptable(path, suffix) {
				c.spSet = true
				c.sp = path
			}
		}
		if loc.Offset == beaconWindowEnd {
			// Decision point (lines 28-30) and blacklist update (31-32).
			if !c.decided && !c.spSet {
				c.decide(i, round)
			}
			if c.spSet && !c.params.DisableBlacklist {
				for _, id := range prefixToBlacklist(c.sp, suffix) {
					c.blacklist.add(id)
				}
			}
			// Continue window starts now: undecided nodes broadcast
			// continue (lines 34-36).
			c.receivedContinue = false
			c.forwardedContinue = false
			if !c.decided {
				out = env.AppendBroadcast(out, Continue{})
			}
		}

	default:
		// Continue window: offsets i+3 .. 2i+4.
		if hasContinue(in) {
			c.receivedContinue = true
			if !c.forwardedContinue && loc.Offset < 2*i+4 {
				c.forwardedContinue = true
				out = env.AppendBroadcast(out, Continue{})
			}
		}
		if loc.Offset == 2*i+4 {
			// End of iteration: a decided node that saw no continue exits
			// (lines 38-39); one that did stays in and, optionally,
			// updates its recorded value (line 44).
			if c.decided {
				if !c.receivedContinue {
					c.exited = true
					if c.params.UpdateOnReentry && i > c.estimate {
						c.estimate = i
					}
				}
			}
		}
	}
	return out
}

func (c *CongestProc) decide(i, round int) {
	c.decided = true
	c.estimate = i
	c.decRound = round
}

// Arena chunk sizes. Each process carves forwarded paths and beacon
// headers from chunks that start small and double up to a cap, so a
// node that forwards a few beacons per run holds little memory and a
// busy forwarder pays one allocation per many forwards. Larger caps
// cost peak memory on sweeps with many short-lived cells; smaller
// initial chunks cost it on graphs with many vertices (see DESIGN.md).
const (
	minIDChunk     = 16
	maxIDChunk     = 64
	minBeaconChunk = 2
	maxBeaconChunk = 8
)

// nextChunk returns the capacity of the chunk that follows one of
// capacity prev: double it, within [lo, hi].
func nextChunk(prev, lo, hi int) int {
	return min(max(2*prev, lo), hi)
}

// carvePath returns a zeroed n-ID slice carved from the process's ID
// arena. The slice is capacity-limited, so a receiver's append copies
// instead of writing into the arena. Chunks are never reused: once
// full, a chunk is dropped and the garbage collector frees it when no
// in-flight beacon or shortest path refers to it, so a path stays
// intact for however long the engine delays its delivery.
func (c *CongestProc) carvePath(n int) []sim.NodeID {
	lo := len(c.ids)
	if cap(c.ids)-lo < n {
		c.ids = make([]sim.NodeID, 0, max(nextChunk(cap(c.ids), minIDChunk, maxIDChunk), n))
		lo = 0
	}
	hi := lo + n
	c.ids = c.ids[:hi]
	return c.ids[lo:hi:hi]
}

// newBeacon returns a beacon header carved from the process's header
// arena. Headers are written once, here, and never again, so the
// pointer stays valid and read-only for the life of the message.
func (c *CongestProc) newBeacon(origin sim.NodeID, path []sim.NodeID) *Beacon {
	if len(c.beacons) == cap(c.beacons) {
		c.beacons = make([]Beacon, 0, nextChunk(cap(c.beacons), minBeaconChunk, maxBeaconChunk))
	}
	c.beacons = append(c.beacons, Beacon{Origin: origin, Path: path})
	return &c.beacons[len(c.beacons)-1]
}

// acceptable implements the blacklist filter of lines 20-21: the path is
// accepted when the non-suffix part is disjoint from the blacklist. The
// prefix is scanned tail-first: a spammer's fabricated IDs sit at its
// head and are fresh every iteration, while its true ID, the one that
// gets blacklisted, sits just before the trusted suffix.
func (c *CongestProc) acceptable(path []sim.NodeID, suffix int) bool {
	if c.params.DisableBlacklist {
		return true
	}
	prefix := prefixToBlacklist(path, suffix)
	for k := len(prefix) - 1; k >= 0; k-- {
		if c.blacklist.has(prefix[k]) {
			return false
		}
	}
	return true
}

// prefixToBlacklist returns all path entries except the last `suffix`
// ones (the trusted near-suffix of lines 20 and 31).
func prefixToBlacklist(path []sim.NodeID, suffix int) []sim.NodeID {
	if len(path) <= suffix {
		return nil
	}
	return path[:len(path)-suffix]
}

// firstBeacon returns the first beacon in the inbox, matching line 14's
// "discards all but one arbitrarily chosen message". The engine delivers
// in deterministic vertex order, so runs stay reproducible.
func firstBeacon(in []sim.Incoming) (*Beacon, sim.NodeID, bool) {
	for _, m := range in {
		if b, ok := m.Payload.(*Beacon); ok {
			return b, m.FromID, true
		}
	}
	return nil, 0, false
}

func hasContinue(in []sim.Incoming) bool {
	for _, m := range in {
		if _, ok := m.Payload.(Continue); ok {
			return true
		}
	}
	return false
}
