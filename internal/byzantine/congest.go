package byzantine

import (
	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// This file implements the attacks against Algorithm 2 (the CONGEST
// counting protocol): beacon spam to inflate the estimate, silence to
// starve neighborhoods of beacons, path tampering to poison blacklists
// with honest IDs, and continue flooding to keep the network awake.

// BeaconSpammer fabricates a fresh beacon every iteration with a bogus
// origin and a fabricated path prefix, trying to convince good nodes that
// the network is larger than it is (the attack that the blacklisting of
// lines 20-32 is designed to stop: the spammer's true ID is appended by
// its honest neighbors, so it lands in the blacklistable prefix of every
// receiver beyond the trusted suffix).
type BeaconSpammer struct {
	Schedule counting.Schedule
	locator  counting.Locator
	// PrefixLen is the number of fabricated IDs prepended to each spam
	// beacon, mimicking an origin PrefixLen hops beyond the spammer.
	PrefixLen int
	// EveryRound, when set, spams every round of the beacon window rather
	// than once per iteration — crowding out honest beacons too.
	EveryRound bool
	rng        *xrand.Rand
}

var _ sim.Proc = (*BeaconSpammer)(nil)

// NewBeaconSpammer returns a spammer driven by the given schedule; the
// schedule must match the honest nodes' so spam lands inside beacon
// windows.
func NewBeaconSpammer(sched counting.Schedule, prefixLen int, everyRound bool, rng *xrand.Rand) *BeaconSpammer {
	return &BeaconSpammer{Schedule: sched, locator: counting.NewLocator(sched), PrefixLen: prefixLen, EveryRound: everyRound, rng: rng}
}

// Halted is always false: the adversary never stops.
func (b *BeaconSpammer) Halted() bool { return false }

// Step emits fabricated beacons at iteration starts (or every beacon-
// window round when EveryRound is set).
func (b *BeaconSpammer) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	b.locator.Bind(b.Schedule) // Schedule is an exported field; track rewrites
	loc := b.locator.Locate(round)
	inBeaconWindow := loc.Offset <= loc.Phase+1
	if !inBeaconWindow {
		return nil
	}
	if !b.EveryRound && loc.Offset != 0 {
		return nil
	}
	prefix := make([]sim.NodeID, b.PrefixLen)
	for i := range prefix {
		prefix[i] = sim.NodeID(b.rng.Uint64())
	}
	origin := sim.NodeID(b.rng.Uint64())
	return env.Broadcast(&counting.Beacon{Origin: origin, Path: prefix})
}

// Silent drops everything and sends nothing: the starvation adversary.
// Honest nodes near a silent cluster receive fewer beacons and may decide
// early — the degradation Remark 1 shows is unavoidable for the o(n)
// nodes the adversary surrounds.
type Silent struct{}

var _ sim.Proc = Silent{}

// Step ignores all input and produces no output.
func (Silent) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }

// Halted is always false; the node occupies its vertex forever.
func (Silent) Halted() bool { return false }

// PathTamperer forwards honest beacons but rewrites the path prefix to
// contain the IDs of innocent honest nodes (its frame targets), trying to
// get them blacklisted so that later honest beacons are rejected and good
// nodes decide early.
type PathTamperer struct {
	Schedule counting.Schedule
	// Frame is the pool of honest IDs to implant into path prefixes.
	Frame []sim.NodeID
	rng   *xrand.Rand
}

var _ sim.Proc = (*PathTamperer)(nil)

// NewPathTamperer returns a tamperer that frames the given IDs.
func NewPathTamperer(sched counting.Schedule, frame []sim.NodeID, rng *xrand.Rand) *PathTamperer {
	return &PathTamperer{Schedule: sched, Frame: frame, rng: rng}
}

// Halted is always false.
func (p *PathTamperer) Halted() bool { return false }

// Step rewrites and forwards one received beacon per round.
func (p *PathTamperer) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	loc := p.Schedule.Locate(round)
	if loc.Offset > loc.Phase+1 {
		return nil
	}
	for _, m := range in {
		if bc, ok := m.Payload.(*counting.Beacon); ok {
			// Replace the prefix with framed IDs, keep length plausible.
			// The received beacon is shared with every other receiver,
			// so the tampered one is built fresh, never written through bc.
			tampered := make([]sim.NodeID, 0, len(bc.Path)+2)
			k := len(bc.Path)
			if k == 0 {
				k = 1
			}
			for i := 0; i < k; i++ {
				if len(p.Frame) > 0 {
					tampered = append(tampered, p.Frame[p.rng.Intn(len(p.Frame))])
				}
			}
			return env.Broadcast(&counting.Beacon{Origin: bc.Origin, Path: tampered})
		}
	}
	return nil
}

// ContinueFlooder broadcasts continue messages in every continue window,
// preventing decided honest nodes from ever exiting. It does not change
// what they decide — it burns rounds and messages, demonstrating that
// liveness of *termination* (not correctness) is what this attack
// touches.
type ContinueFlooder struct {
	Schedule counting.Schedule
}

var _ sim.Proc = ContinueFlooder{}

// Halted is always false.
func (ContinueFlooder) Halted() bool { return false }

// Step floods a continue at the start of every continue window.
func (c ContinueFlooder) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	loc := c.Schedule.Locate(round)
	if loc.Offset >= loc.Phase+2 && loc.Offset < 2*loc.Phase+4 {
		return env.Broadcast(counting.Continue{})
	}
	return nil
}
