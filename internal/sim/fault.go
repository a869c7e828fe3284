package sim

// Message-fault models for the virtual-time scheduler. A FaultModel
// decides, per admitted message, whether the network loses it. Faults
// apply after admission control (neighbor check, edge-capacity budget)
// and before the latency draw: a dropped message has already consumed
// the sender's per-round capacity — the sender spent the edge — but it
// never reaches an inbox, is not counted in Metrics.Messages, and does
// not advance the delay stream. Drops are counted in Metrics.Dropped.
//
// The same determinism contract as DelayModel applies: randomness comes
// only from the sender's private "fault" stream, stepped in send order
// by exactly one goroutine, so verdicts are identical at every worker
// count.

import (
	"fmt"
	"strconv"
	"strings"

	"byzcount/internal/xrand"
)

// FaultModel decides which admitted messages the network loses.
// Implementations must be pure: the verdict may depend only on (rng
// draws, round, from, to).
type FaultModel interface {
	// Name renders the model as its canonical spec string (the grammar
	// ParseFaultModel accepts).
	Name() string
	// Draws reports whether Drop consumes rng. Non-drawing models let
	// the engine skip per-sender fault streams entirely.
	Draws() bool
	// Drop reports whether the message from vertex `from` to vertex
	// `to` sent at tick `round` is lost. rng is the sender's private
	// fault stream, or nil when Draws() is false.
	Drop(rng *xrand.Rand, round, from, to int) bool
}

// DropFault loses each message independently with probability P — the
// iid message-loss adversary.
type DropFault struct {
	P float64 // in [0, 1]
}

// Name returns "drop:P".
func (m DropFault) Name() string { return fmt.Sprintf("drop:%g", m.P) }

// Draws returns true.
func (m DropFault) Draws() bool { return true }

// Drop flips a P-weighted coin on the sender's fault stream.
func (m DropFault) Drop(rng *xrand.Rand, _, _, _ int) bool {
	return rng.Bernoulli(m.P)
}

// PartitionFault splits the network into Groups round-robin groups
// (group = slot mod Groups, size-independent and churn-stable, matching
// RegionDelay's assignment) and loses every cross-group message during
// ticks [From, Heal). Heal == 0 means the partition never heals. Within
// a group, delivery is unaffected. It never draws.
type PartitionFault struct {
	Groups int // >= 2
	From   int // first partitioned tick
	Heal   int // first healed tick; 0 = never heals
}

// Name returns "partition:GROUPS@FROM-HEAL" (no -HEAL suffix when the
// partition never heals).
func (m PartitionFault) Name() string {
	if m.Heal == 0 {
		return fmt.Sprintf("partition:%d@%d", m.Groups, m.From)
	}
	return fmt.Sprintf("partition:%d@%d-%d", m.Groups, m.From, m.Heal)
}

// Draws returns false.
func (m PartitionFault) Draws() bool { return false }

// Drop loses cross-group messages while the partition is up.
func (m PartitionFault) Drop(_ *xrand.Rand, round, from, to int) bool {
	if round < m.From || (m.Heal > 0 && round >= m.Heal) {
		return false
	}
	return from%m.Groups != to%m.Groups
}

// ParseFaultModel parses a fault spec string:
//
//	none                        no faults (same as the empty string)
//	drop:P                      iid loss with probability P
//	partition:G@FROM[-HEAL]     G round-robin groups, cross-group loss
//	                            during [FROM, HEAL) (omit -HEAL: forever)
//
// The empty string and "none" parse to nil (no fault model). Name() on
// the returned model round-trips to the canonical spec.
func ParseFaultModel(spec string) (FaultModel, error) {
	switch {
	case spec == "" || spec == "none":
		return nil, nil
	case strings.HasPrefix(spec, "drop:"):
		p, err := strconv.ParseFloat(strings.TrimPrefix(spec, "drop:"), 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("sim: bad fault spec %q (want drop:P with P in [0,1])", spec)
		}
		return DropFault{P: p}, nil
	case strings.HasPrefix(spec, "partition:"):
		body := strings.TrimPrefix(spec, "partition:")
		gs, win, ok := strings.Cut(body, "@")
		if !ok {
			return nil, fmt.Errorf("sim: bad fault spec %q (want partition:G@FROM[-HEAL])", spec)
		}
		g, err := strconv.Atoi(gs)
		if err != nil || g < 2 {
			return nil, fmt.Errorf("sim: bad fault spec %q (want partition:G@FROM[-HEAL] with G >= 2)", spec)
		}
		from, heal, err := parseIntRange(win)
		if !strings.Contains(win, "-") {
			heal = 0 // bare FROM: never heals
		}
		if err != nil || from < 0 || (heal != 0 && heal <= from) {
			return nil, fmt.Errorf("sim: bad fault spec %q (want partition:G@FROM[-HEAL] with HEAL > FROM)", spec)
		}
		return PartitionFault{Groups: g, From: from, Heal: heal}, nil
	default:
		return nil, fmt.Errorf("sim: unknown fault spec %q (want none, drop:P, or partition:G@FROM[-HEAL])", spec)
	}
}
