package sim

// Delivery-latency models for the engine's delivery ring. A DelayModel
// decides, per admitted message, how many virtual ticks later the
// message is delivered; the engine schedules it into the delivery ring
// (see the delivery notes on Engine) keyed on the deliver tick, the
// sender slot, and the per-sender send sequence, so delivery order is a
// pure function of the seed however vertices are scheduled.
//
// Determinism contract: a model's randomness comes only from the rng
// the engine passes in — the sender's private "delay" stream, derived
// from the engine seed and stepped exclusively by that sender's
// messages in send order. Because each vertex is stepped by exactly one
// goroutine per round and a sender's messages are processed in order,
// the draw sequence (and therefore every latency) is identical at every
// worker count. Models that never draw must report Draws() == false so
// the engine skips deriving streams entirely — a unit-latency run then
// draws no latency stream at all, so installing UnitDelay{} and
// installing no model are byte-identical.

import (
	"fmt"
	"strconv"
	"strings"

	"byzcount/internal/xrand"
)

// DelayModel assigns each admitted message a delivery latency in whole
// virtual ticks. Implementations must be pure: the returned delay may
// depend only on (rng draws, round, from, to).
type DelayModel interface {
	// Name renders the model as its canonical spec string (the grammar
	// ParseDelayModel accepts), so labels and CLI output round-trip.
	Name() string
	// MaxDelay is the inclusive upper bound on Delay's results (>= 1).
	// It sizes the engine's delivery ring; results are clamped to it.
	MaxDelay() int
	// Draws reports whether Delay consumes rng. Non-drawing models let
	// the engine skip per-sender delay streams entirely, which both
	// saves memory and keeps the unit model's stream consumption equal
	// to the nil model's.
	Draws() bool
	// Delay returns the latency in ticks (1 = next tick) for a message
	// from vertex `from` to vertex `to` sent at tick `round`. rng is the
	// sender's private delay stream, or nil when Draws() is false.
	Delay(rng *xrand.Rand, round, from, to int) int
}

// UnitDelay is the synchronous model: every message takes exactly one
// tick, the paper's lockstep rounds. It is what a nil DelayModel means;
// it never draws, so installing it explicitly is byte-identical to
// installing nothing (pinned by the TestVTUnit* property tests).
type UnitDelay struct{}

// Name returns "unit".
func (UnitDelay) Name() string { return "unit" }

// MaxDelay returns 1.
func (UnitDelay) MaxDelay() int { return 1 }

// Draws returns false.
func (UnitDelay) Draws() bool { return false }

// Delay returns 1.
func (UnitDelay) Delay(*xrand.Rand, int, int, int) int { return 1 }

// UniformDelay draws each message's latency uniformly from [Min, Max] —
// bounded jitter, the simplest reordering adversary (a slow message is
// overtaken by up to Max-Min rounds of later traffic).
type UniformDelay struct {
	Min, Max int // 1 <= Min <= Max
}

// Name returns "uniform:MIN-MAX".
func (m UniformDelay) Name() string { return fmt.Sprintf("uniform:%d-%d", m.Min, m.Max) }

// MaxDelay returns Max.
func (m UniformDelay) MaxDelay() int { return m.Max }

// Draws reports whether the interval has more than one value.
func (m UniformDelay) Draws() bool { return m.Max > m.Min }

// Delay draws uniformly from [Min, Max] (no draw when Min == Max).
func (m UniformDelay) Delay(rng *xrand.Rand, _, _, _ int) int {
	if m.Max <= m.Min {
		return m.Min
	}
	return m.Min + rng.Intn(m.Max-m.Min+1)
}

// GeometricDelay draws 1 + a geometric tail: each extra tick happens
// with probability 1-P, truncated at Cap — the long-tail straggler
// model (most messages are fast, a few are very late).
type GeometricDelay struct {
	P   float64 // per-tick stop probability in [minGeoP, 1]
	Cap int     // inclusive latency bound (>= 1)
}

// minGeoP is the smallest P ParseDelayModel accepts: a draw takes ~1/P
// coin flips whatever Cap is (see Delay), so a tinier P stalls the run.
const minGeoP = 1e-3

// Name returns "geo:P@CAP".
func (m GeometricDelay) Name() string { return fmt.Sprintf("geo:%g@%d", m.P, m.Cap) }

// MaxDelay returns Cap.
func (m GeometricDelay) MaxDelay() int { return m.Cap }

// Draws returns true.
func (m GeometricDelay) Draws() bool { return true }

// Delay returns min(GeometricP(P), Cap). The draw happens even when the
// result caps, so the stream advances identically however Cap is set.
func (m GeometricDelay) Delay(rng *xrand.Rand, _, _, _ int) int {
	d := rng.GeometricP(m.P)
	if d > m.Cap {
		d = m.Cap
	}
	return d
}

// RegionDelay models per-region latency asymmetry: vertices are
// assigned round-robin to Regions regions (region = slot mod Regions,
// so the assignment is independent of the network size and a slot keeps
// its region across membership turnover), messages within a region take
// Near ticks and messages crossing regions take Far ticks. It never
// draws.
type RegionDelay struct {
	Regions   int // >= 2
	Near, Far int // 1 <= Near, 1 <= Far
}

// Name returns "region:REGIONS/NEAR/FAR".
func (m RegionDelay) Name() string { return fmt.Sprintf("region:%d/%d/%d", m.Regions, m.Near, m.Far) }

// MaxDelay returns max(Near, Far).
func (m RegionDelay) MaxDelay() int { return max(m.Near, m.Far) }

// Draws returns false.
func (m RegionDelay) Draws() bool { return false }

// Delay returns Near for intra-region messages, Far across regions.
func (m RegionDelay) Delay(_ *xrand.Rand, _, from, to int) int {
	if from%m.Regions == to%m.Regions {
		return m.Near
	}
	return m.Far
}

// GSTDelay is the partial-synchrony model: before the global
// stabilization time the network behaves as Inner prescribes, from tick
// GST on every message takes exactly one tick. Inner's stream advances
// only before GST, so post-GST executions are a pure function of the
// pre-GST traffic — exactly the paper-family model where an adversary
// controls scheduling until an unknown stabilization point.
type GSTDelay struct {
	GST   int // first synchronous tick
	Inner DelayModel
}

// Name returns "gst:GST/INNER".
func (m GSTDelay) Name() string { return fmt.Sprintf("gst:%d/%s", m.GST, m.Inner.Name()) }

// MaxDelay returns the inner model's bound.
func (m GSTDelay) MaxDelay() int { return m.Inner.MaxDelay() }

// Draws reports whether the inner model draws.
func (m GSTDelay) Draws() bool { return m.Inner.Draws() }

// Delay defers to Inner before GST and returns 1 from GST on.
func (m GSTDelay) Delay(rng *xrand.Rand, round, from, to int) int {
	if round >= m.GST {
		return 1
	}
	return m.Inner.Delay(rng, round, from, to)
}

// ParseDelayModel parses a delay spec string:
//
//	unit                   synchronous (one tick per message)
//	uniform:MIN-MAX        uniform jitter in [MIN, MAX] ticks
//	geo:P@CAP              1 + geometric tail, stop probability P, capped
//	region:G/NEAR/FAR      G round-robin regions, NEAR within, FAR across
//	gst:R/SPEC             SPEC before tick R, synchronous after
//
// The empty string parses to nil (no model: unit latency). Specs are the CLI's and the scenario grid's delay-axis
// vocabulary; Name() on the returned model round-trips to the canonical
// spec.
func ParseDelayModel(spec string) (DelayModel, error) {
	switch {
	case spec == "":
		return nil, nil
	case spec == "unit":
		return UnitDelay{}, nil
	case strings.HasPrefix(spec, "uniform:"):
		lo, hi, err := parseIntRange(strings.TrimPrefix(spec, "uniform:"))
		if err != nil || lo < 1 || hi < lo {
			return nil, fmt.Errorf("sim: bad delay spec %q (want uniform:MIN-MAX with 1 <= MIN <= MAX)", spec)
		}
		return UniformDelay{Min: lo, Max: hi}, nil
	case strings.HasPrefix(spec, "geo:"):
		body := strings.TrimPrefix(spec, "geo:")
		ps, cs, ok := strings.Cut(body, "@")
		if !ok {
			return nil, fmt.Errorf("sim: bad delay spec %q (want geo:P@CAP)", spec)
		}
		p, err1 := strconv.ParseFloat(ps, 64)
		c, err2 := strconv.Atoi(cs)
		if err1 != nil || err2 != nil || !(p >= minGeoP && p <= 1) || c < 1 {
			return nil, fmt.Errorf("sim: bad delay spec %q (want geo:P@CAP with P in [%g,1] and CAP >= 1)", spec, minGeoP)
		}
		return GeometricDelay{P: p, Cap: c}, nil
	case strings.HasPrefix(spec, "region:"):
		parts := strings.Split(strings.TrimPrefix(spec, "region:"), "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("sim: bad delay spec %q (want region:G/NEAR/FAR)", spec)
		}
		g, err1 := strconv.Atoi(parts[0])
		near, err2 := strconv.Atoi(parts[1])
		far, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || g < 2 || near < 1 || far < 1 {
			return nil, fmt.Errorf("sim: bad delay spec %q (want region:G/NEAR/FAR with G >= 2 and delays >= 1)", spec)
		}
		return RegionDelay{Regions: g, Near: near, Far: far}, nil
	case strings.HasPrefix(spec, "gst:"):
		body := strings.TrimPrefix(spec, "gst:")
		rs, inner, ok := strings.Cut(body, "/")
		if !ok {
			return nil, fmt.Errorf("sim: bad delay spec %q (want gst:R/SPEC)", spec)
		}
		r, err := strconv.Atoi(rs)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("sim: bad delay spec %q (want gst:R/SPEC with R >= 0)", spec)
		}
		m, err := ParseDelayModel(inner)
		if err != nil {
			return nil, err
		}
		if m == nil {
			return nil, fmt.Errorf("sim: bad delay spec %q (gst needs an inner spec, e.g. gst:%d/uniform:1-4)", spec, r)
		}
		return GSTDelay{GST: r, Inner: m}, nil
	default:
		return nil, fmt.Errorf("sim: unknown delay spec %q (want unit, uniform:MIN-MAX, geo:P@CAP, region:G/NEAR/FAR, or gst:R/SPEC)", spec)
	}
}

// parseIntRange parses "A-B" (or a single "A", meaning A-A).
func parseIntRange(s string) (lo, hi int, err error) {
	as, bs, ok := strings.Cut(s, "-")
	if !ok {
		bs = as
	}
	lo, err = strconv.Atoi(as)
	if err != nil {
		return 0, 0, err
	}
	hi, err = strconv.Atoi(bs)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
