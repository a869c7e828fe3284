package sim

// The virtual-time hot path: devirtualized delay/fault dispatch, sparse
// (occupancy-tracked) ring delivery, and the marker contract behind tick
// fast-forwarding.
//
// PR 7's scheduler paid two interface calls plus a lazy stream lookup
// per admitted message and an O(n) ring-row scan per tick. Here the
// installed DelayModel/FaultModel are type-switched ONCE per tick into a
// small plain-data dispatch record (vtRound); the per-message loop then
// branches on an enum instead of calling through an interface, draws no
// RNG at all for fixed-latency ticks (unit, post-GST, degenerate
// uniform, region with Near == Far), skips the fault stream entirely for
// drop p=0 / p=1 and for ticks outside the partition window, and hoists
// the per-sender stream lookups out of the message loop. Every inlined
// arm consumes exactly the draws the model's own Delay/Drop would, so
// transcripts are bit-identical to the interface path.
//
// Sparse delivery generalizes this from messages to ticks: each
// (shard, ring slot) pair tracks its pending-message count and a
// compact list of occupied rows, so a tick's delivery scans and clears
// O(delivered) rows instead of O(n) — per worker, O(delivered/shards +
// shard-local always-step) under the pool — and an all-empty tick is
// detected in O(shards), at which point the scheduler may fast-forward
// the virtual clock (see TickDriven). The parallel overlay is race-free
// by ownership: step worker i reads and clears only shard i's
// current-slot region, merge worker s appends only to shard s's
// regions, the two phases are barrier-separated, and no message can
// target the slot being delivered (delays are >= 1).

import (
	"slices"

	"byzcount/internal/xrand"
)

// TickDriven is an opt-in marker for processes that are strictly
// message-driven: a Step with an empty inbox must send nothing and
// change no observable state (Halted must not flip, and the proc must
// not touch its Env stream). Additionally, a TickDriven proc's Halted()
// may transition only during its own Step — never as a side effect of
// another process's Step.
//
// When every live process attached to a virtual-time engine is
// TickDriven, executing an empty tick is provably a no-op, so the
// scheduler — serial or sharded-parallel — jumps the virtual clock over
// it (counted in Metrics.TicksSkipped; Rounds and MessagesByRound
// advance as if the tick had run). The emptiness test is one occCnt
// load per shard. Round-driven processes — timers, beacon schedules,
// flood sources that broadcast unprompted — must NOT carry the marker:
// they are stepped on every tick, empty or not, and their presence
// disables fast-forwarding (but not sparse delivery) automatically.
type TickDriven interface {
	StepsOnMessagesOnly()
}

// Delay dispatch kinds, resolved once per tick by resolveVT. dkFixed
// covers every model arm that needs neither RNG nor per-message
// predicates: unit, any GST model at or past its stabilization tick,
// uniform with Min == Max, region with Near == Far.
const (
	dkFixed   uint8 = iota // constant latency d0; no draw
	dkUniform              // d0 + Intn(dSpan)
	dkGeo                  // GeometricP(dP) capped at d1
	dkRegion               // d0 within a region, d1 across (mod dRegions)
	dkIface                // unknown model: interface call + counted clamps
)

// Fault dispatch kinds. fkNone covers no model, drop p=0, and every
// tick outside a partition's [From, Heal) window — the per-tick
// partition predicate is evaluated here, once, not per message.
const (
	fkNone      uint8 = iota // nothing can drop this tick
	fkDrop                   // Bernoulli(fP) on the sender's fault stream
	fkDropAll                // drop p>=1: every message lost, no draw
	fkPartition              // cross-group loss (mod fGroups), no draw
	fkIface                  // unknown model: interface call
)

// vtRound is one tick's devirtualized model dispatch: plain data, no
// interface values, rebuilt each tick (GST and partition windows make
// the resolution tick-dependent). needD/needF gate the per-vertex
// stream hoists so non-drawing ticks never derive streams.
type vtRound struct {
	dk, fk       uint8
	needD, needF bool
	d0, d1       int     // fixed/min/near; cap/far
	dSpan        int     // uniform: Max-Min+1
	dRegions     int     // region: group modulus
	dP           float64 // geo: stop probability
	fGroups      int     // partition: group modulus
	fP           float64 // drop: loss probability
}

// resolveVT type-switches the installed models into tick t's dispatch
// record. Built-in models with parameters inside the validated ranges
// (what ParseDelayModel/ParseFaultModel emit) get inlined arms; anything
// else — custom models, hand-built structs with out-of-range fields —
// falls back to the interface arm, which preserves the PR-7 semantics
// exactly (including latency clamping, now counted in
// Metrics.DelayClamped instead of silent).
func (e *Engine) resolveVT(tick int) vtRound {
	r := vtRound{dk: dkFixed, d0: 1, fk: fkNone}
	w := e.window
	m := e.delay
	// A GST model is its inner model before the stabilization tick and
	// the unit model after it; the inner stream must advance only before
	// GST, which unwrapping here (instead of per message) guarantees.
	for {
		g, ok := m.(GSTDelay)
		if !ok {
			break
		}
		if tick >= g.GST {
			m = UnitDelay{}
		} else {
			m = g.Inner
		}
	}
	switch d := m.(type) {
	case nil, UnitDelay:
		// dkFixed, d0 = 1
	case UniformDelay:
		switch {
		case d.Min < 1 || d.Max < d.Min || d.Max >= w:
			r.dk = dkIface
		case d.Max == d.Min:
			r.d0 = d.Min // degenerate interval: no draw, like the model
		default:
			r.dk, r.d0, r.dSpan = dkUniform, d.Min, d.Max-d.Min+1
		}
	case GeometricDelay:
		if d.P > 0 && d.P <= 1 && d.Cap >= 1 && d.Cap < w {
			r.dk, r.dP, r.d1 = dkGeo, d.P, d.Cap
		} else {
			r.dk = dkIface
		}
	case RegionDelay:
		switch {
		case d.Regions < 1 || d.Near < 1 || d.Near >= w || d.Far < 1 || d.Far >= w:
			r.dk = dkIface
		case d.Near == d.Far:
			r.d0 = d.Near
		default:
			r.dk, r.dRegions, r.d0, r.d1 = dkRegion, d.Regions, d.Near, d.Far
		}
	default:
		r.dk = dkIface
	}
	switch f := e.fault.(type) {
	case nil:
	case DropFault:
		switch {
		case f.P <= 0:
			// fkNone: nothing to draw — the verdict is known. The fault
			// stream is private to fault verdicts, so not advancing it
			// is unobservable.
		case f.P >= 1:
			r.fk = fkDropAll
		default:
			r.fk, r.fP = fkDrop, f.P
		}
	case PartitionFault:
		switch {
		case tick < f.From || (f.Heal > 0 && tick >= f.Heal):
			// fkNone: outside the partition window.
		case f.Groups >= 1:
			r.fk, r.fGroups = fkPartition, f.Groups
		default:
			r.fk = fkIface
		}
	default:
		r.fk = fkIface
	}
	r.needD = r.dk == dkUniform || r.dk == dkGeo || r.dk == dkIface
	r.needF = r.fk == fkDrop || r.fk == fkIface
	return r
}

// deliverVT admits and schedules one sender's outgoing messages for a
// serial virtual-time round. The admission pipeline order is fixed —
//
//	neighbor check -> capacity budget -> fault verdict -> latency draw
//
// — matching PR 7's roundSerialVT exactly (a faulted message has spent
// the edge but is counted in Dropped, not Messages, and does not
// advance the latency stream). Fully static ticks (dkFixed + fkNone:
// unit latency, post-GST) take a dedicated lane with the destination
// ring slot hoisted out of the loop; that lane carries every
// synchronous round. The admission logic is hand-inlined, not factored
// into a per-message call: this is the engine's hot path, and an
// uninlined call per message costs ~50% throughput.
func (e *Engine) deliverVT(ws *workerState, v, tick int, vtr *vtRound, out []Outgoing) {
	n := e.n
	window := e.window
	capBits := e.edgeCapBits
	nbrMark := ws.nbrMark
	ws.gen++
	gen := ws.gen
	for _, w := range e.sortedAdj[v] {
		nbrMark[w] = gen
	}
	fromID := e.ids[v]
	perNodeMax := e.metrics.PerNodeMaxBit
	maxSent := perNodeMax[v]
	sparse := e.sparse
	var msgs, totalBits int64
	if vtr.dk == dkFixed && vtr.fk == fkNone {
		si := (tick + vtr.d0) % window
		dst := e.ring[si]
		for _, msg := range out {
			to, payload := msg.To, msg.Payload
			if uint(to) >= uint(n) || nbrMark[to] != gen {
				ws.violations++
				continue
			}
			bits := 0
			if payload != nil {
				bits = payload.SizeBits()
			}
			if capBits > 0 {
				if ws.budgetGen[to] != gen {
					ws.budgetGen[to] = gen
					ws.budget[to] = 0
				}
				if ws.budget[to]+bits > capBits {
					ws.capped++
					continue
				}
				ws.budget[to] += bits
			}
			msgs++
			totalBits += int64(bits)
			if bits > ws.maxMsgBits {
				ws.maxMsgBits = bits
			}
			if bits > maxSent {
				maxSent = bits
			}
			if sparse && len(dst[to]) == 0 {
				e.occRows[si] = append(e.occRows[si], int32(to))
			}
			// Appending back into the same expression lets the compiler
			// store only the new length while the row has capacity: no
			// slice-pointer store, so no GC write barrier per message.
			dst[to] = append(dst[to], Incoming{From: v, FromID: fromID, Payload: payload})
		}
		if sparse {
			e.occCnt[si] += msgs
		}
	} else {
		var dRng, fRng *xrand.Rand
		if vtr.needD {
			dRng = e.delayStream(v)
		}
		if vtr.needF {
			fRng = e.faultStream(v)
		}
		var clamped int64
		for _, msg := range out {
			to, payload := msg.To, msg.Payload
			if uint(to) >= uint(n) || nbrMark[to] != gen {
				ws.violations++
				continue
			}
			bits := 0
			if payload != nil {
				bits = payload.SizeBits()
			}
			if capBits > 0 {
				if ws.budgetGen[to] != gen {
					ws.budgetGen[to] = gen
					ws.budget[to] = 0
				}
				if ws.budget[to]+bits > capBits {
					ws.capped++
					continue
				}
				ws.budget[to] += bits
			}
			switch vtr.fk {
			case fkNone:
			case fkPartition:
				if v%vtr.fGroups != to%vtr.fGroups {
					ws.dropped++
					continue
				}
			case fkDrop:
				if fRng.Bernoulli(vtr.fP) {
					ws.dropped++
					continue
				}
			case fkDropAll:
				ws.dropped++
				continue
			default:
				if e.fault.Drop(fRng, tick, v, to) {
					ws.dropped++
					continue
				}
			}
			var d int
			switch vtr.dk {
			case dkFixed:
				d = vtr.d0
			case dkUniform:
				d = vtr.d0 + dRng.Intn(vtr.dSpan)
			case dkGeo:
				d = dRng.GeometricP(vtr.dP)
				if d > vtr.d1 {
					d = vtr.d1
				}
			case dkRegion:
				if v%vtr.dRegions == to%vtr.dRegions {
					d = vtr.d0
				} else {
					d = vtr.d1
				}
			default:
				d = e.delay.Delay(dRng, tick, v, to)
				if d < 1 {
					d = 1
					clamped++
				} else if d >= window {
					d = window - 1
					clamped++
				}
			}
			msgs++
			totalBits += int64(bits)
			if bits > ws.maxMsgBits {
				ws.maxMsgBits = bits
			}
			if bits > maxSent {
				maxSent = bits
			}
			si := (tick + d) % window
			dst := e.ring[si]
			if sparse {
				if len(dst[to]) == 0 {
					e.occRows[si] = append(e.occRows[si], int32(to))
				}
				e.occCnt[si]++
			}
			dst[to] = append(dst[to], Incoming{From: v, FromID: fromID, Payload: payload})
		}
		ws.delayClamped += clamped
	}
	ws.messages += msgs
	ws.bits += totalBits
	perNodeMax[v] = maxSent
}

// roundSerialVT executes one round on the calling goroutine: resolve
// the tick's dispatch record, then either the sparse lane
// (occupancy-tracked engines) or the dense lane (every vertex scanned).
// Returns whether every process had halted.
func (e *Engine) roundSerialVT(r int) bool {
	n := e.n
	ws := e.ws[0]
	if e.edgeCapBits > 0 && ws.budget == nil {
		ws.budget = make([]int, n)
		ws.budgetGen = make([]uint64, n)
	}
	if ws.nbrMark == nil {
		ws.nbrMark = make([]uint64, n)
	}
	tick := e.metrics.Rounds
	e.tick = tick
	vtr := e.resolveVT(tick)
	if e.sparse {
		return e.roundSparseVT(r, tick, &vtr)
	}
	box := e.ring[tick%e.window]
	dyn := e.topo != nil
	allHalted := true
	for v := 0; v < n; v++ {
		p := e.procs[v]
		if p == nil || p.Halted() {
			box[v] = box[v][:0]
			continue
		}
		allHalted = false
		if dyn && e.epochOf[v] != e.curEpoch {
			e.catchUpVertex(v)
		}
		out := p.Step(&e.envs[v], r, box[v])
		box[v] = box[v][:0]
		if len(out) == 0 {
			continue
		}
		e.deliverVT(ws, v, tick, &vtr, out)
		if cap(out) > cap(e.envs[v].scratch) {
			e.envs[v].scratch = out[:0]
		}
	}
	return allHalted
}

// roundSparseVT executes one occupancy-tracked virtual-time round: it
// steps the union of the always-step vertices (procs without the
// TickDriven marker — stepped every tick, exactly the dense semantics)
// and the rows occupied in this tick's ring slot, in ascending vertex
// order — the dense lane's order restricted to vertices whose Step
// could observably differ from a no-op. Occupied-row lists may carry
// stale entries (a Detach truncated the row) and duplicates (a slot
// recycled mid-flight); sorting plus the prev-dedupe below makes both
// harmless. The slot's list and counter are reset afterwards — O(1)
// amortized per delivered message, never O(n) per tick.
//
// The all-halted verdict is the dense lane's: no process was live when
// its turn came. A TickDriven proc that halts during this round's Step
// was live at its turn, so the verdict reads the live TickDriven count
// from before the round; reading it after would end the run one round
// before the dense lane does.
func (e *Engine) roundSparseVT(r, tick int, vtr *vtRound) bool {
	ws := e.ws[0]
	tdLiveBefore := e.tdLive
	si := tick % e.window
	box := e.ring[si]
	occ := e.occRows[si]
	slices.Sort(occ)
	always := e.alwaysStep
	dyn := e.topo != nil
	liveAlways := 0
	ai, oi := 0, 0
	prev := int32(-1)
	for ai < len(always) || oi < len(occ) {
		var v32 int32
		if oi >= len(occ) || (ai < len(always) && always[ai] <= occ[oi]) {
			v32 = always[ai]
			ai++
		} else {
			v32 = occ[oi]
			oi++
		}
		if v32 == prev {
			continue
		}
		prev = v32
		v := int(v32)
		p := e.procs[v]
		if p == nil || p.Halted() {
			box[v] = box[v][:0]
			continue
		}
		td := e.isTD[v]
		if !td {
			liveAlways++
		}
		if dyn && e.epochOf[v] != e.curEpoch {
			e.catchUpVertex(v)
		}
		out := p.Step(&e.envs[v], r, box[v])
		box[v] = box[v][:0]
		if td && p.Halted() {
			e.tdLive--
		}
		if len(out) == 0 {
			continue
		}
		e.deliverVT(ws, v, tick, vtr, out)
		if cap(out) > cap(e.envs[v].scratch) {
			e.envs[v].scratch = out[:0]
		}
	}
	e.occRows[si] = occ[:0]
	e.occCnt[si] = 0
	return liveAlways == 0 && tdLiveBefore == 0
}

// vtCanSkip reports whether fast-forwarding over an empty tick is a
// provable no-op: no live always-step proc remains (each would be owed
// a Step), and at least one live TickDriven proc does (otherwise the
// round would end the run via the all-halted return, which a skip must
// not preempt). The scan early-exits on the first live always-step
// proc, so steady skipping costs O(1) per tick for message-driven
// populations.
func (e *Engine) vtCanSkip() bool {
	for _, v := range e.alwaysStep {
		if p := e.procs[v]; p != nil && !p.Halted() {
			return false
		}
	}
	return e.tdLive > 0
}

// recountTickDriven re-derives the live TickDriven count at Run entry.
// Within a run the count is maintained incrementally (Step-time halts,
// AttachAt, Detach); between runs procs may only halt during their own
// Step — part of the TickDriven contract — so this recount is a cheap
// O(n) belt-and-braces pass, not a correctness requirement.
func (e *Engine) recountTickDriven() {
	live := 0
	for v, p := range e.procs {
		if p != nil && v < len(e.isTD) && e.isTD[v] && !p.Halted() {
			live++
		}
	}
	e.tdLive = live
}

// occIdx maps (vertex, ring slot) to the occupancy overlay index. The
// layout is shard-major — occ[shard*window+slot] — so each merge worker
// owns one contiguous region and folds occupancy in race-free. Serial
// engines have one shard and the index degenerates to the slot itself,
// which is what the serial lanes (deliverVT, roundSparseVT) address
// directly. The shardOf length guard covers mid-hook growth: a vertex
// beyond the old capacity lands in slot-only indexing, and the pending
// regrow rebuilds the overlay from ring ground truth before the next
// round anyway.
func (e *Engine) occIdx(v, slot int) int {
	if len(e.ranges) > 1 && v < len(e.shardOf) {
		return int(e.shardOf[v])*e.window + slot
	}
	return slot
}

// occSlotEmpty reports whether ring slot `slot` holds no pending
// messages in any shard — the all-empty-tick test behind fast-forward,
// an O(shards) reduction over the shard-major overlay.
func (e *Engine) occSlotEmpty(slot int) bool {
	for idx := slot; idx < len(e.occCnt); idx += e.window {
		if e.occCnt[idx] != 0 {
			return false
		}
	}
	return true
}

// ensureOccupancy (re)builds the shard-major occupancy overlay from the
// ring's ground truth. Called whenever ensureState enables sparse mode,
// so messages left in flight across a parallelism or capacity change
// are re-discovered rather than stranded — and re-homed to whichever
// shard owns their destination under the new ranges.
func (e *Engine) ensureOccupancy() {
	w := e.window
	shards := len(e.ranges)
	if shards < 1 {
		shards = 1
	}
	total := shards * w
	if len(e.occCnt) != total {
		e.occCnt = make([]int64, total)
		e.occRows = make([][]int32, total)
	}
	for i := range e.occCnt {
		e.occCnt[i] = 0
		e.occRows[i] = e.occRows[i][:0]
	}
	for s := 0; s < w; s++ {
		for v, row := range e.ring[s] {
			if len(row) > 0 {
				idx := e.occIdx(v, s)
				e.occRows[idx] = append(e.occRows[idx], int32(v))
				e.occCnt[idx] += int64(len(row))
			}
		}
	}
}

// stepShardSparseVT is the sparse step phase of one parallel
// virtual-time round: worker i walks the union of its shard's
// always-step vertices (binary-searched out of the engine-wide sorted
// list) and the rows occupied in this tick's ring slot, in ascending
// vertex order — roundSparseVT's walk restricted to the shard, which is
// the dense parallel lane's order restricted to vertices whose Step
// could observably differ from a no-op. Occupancy reads and clears are
// worker-private: the overlay region belongs to shard i, and in-flight
// messages can never target the tick being delivered (delays are >= 1),
// so the merge phase never touches what this phase just cleared. Halt
// bookkeeping lands in the worker-local liveAlways/tdHalts counters;
// the coordinator folds them after the merge barrier.
func (e *Engine) stepShardSparseVT(i int) {
	ws := e.ws[i]
	r := e.round
	idx := i*e.window + e.tick%e.window
	occ := e.occRows[idx]
	slices.Sort(occ)
	lo, hi := e.ranges[i][0], e.ranges[i][1]
	always := e.alwaysStep
	aLo, _ := slices.BinarySearch(always, int32(lo))
	aHi, _ := slices.BinarySearch(always, int32(hi))
	always = always[aLo:aHi]
	box := e.ring[e.tick%e.window]
	ai, oi := 0, 0
	prev := int32(-1)
	for ai < len(always) || oi < len(occ) {
		var v32 int32
		if oi >= len(occ) || (ai < len(always) && always[ai] <= occ[oi]) {
			v32 = always[ai]
			ai++
		} else {
			v32 = occ[oi]
			oi++
		}
		if v32 == prev {
			continue
		}
		prev = v32
		v := int(v32)
		p := e.procs[v]
		if p == nil || p.Halted() {
			box[v] = box[v][:0]
			continue
		}
		td := e.isTD[v]
		if !td {
			ws.liveAlways++
		}
		e.stepVertexVT(v, r, ws, box)
		if td && p.Halted() {
			ws.tdHalts++
		}
	}
	e.occRows[idx] = occ[:0]
	e.occCnt[idx] = 0
}

// mergeShardVTSparse is mergeShardVT plus occupancy folding: while
// draining every worker's buckets for destination shard s into the ring
// (same slot-major, worker-order walk — ascending sender order, so
// transcripts stay byte-identical to serial), it appends each row that
// transitions empty -> nonempty to the shard's occupied-row list and
// counts every delivered message, exactly the accounting deliverVT does
// on the serial path. Rows left nonempty by a stale overlay entry
// (Detach truncation, slot recycling) duplicate their entry here, which
// delivery's sort+dedupe tolerates — the same contract as serial.
func (e *Engine) mergeShardVTSparse(s int) {
	window := e.window
	for d := 1; d < window; d++ {
		slot := (e.tick + d) % window
		box := e.ring[slot]
		idx := s*window + slot
		rows := e.occRows[idx]
		cnt := e.occCnt[idx]
		for i := range e.ranges {
			bucket := e.ws[i].vtb[s*window+d]
			for _, m := range bucket {
				if len(box[m.to]) == 0 {
					rows = append(rows, m.to)
				}
				box[m.to] = append(box[m.to], Incoming{
					From:    int(m.from),
					FromID:  e.ids[m.from],
					Payload: m.payload,
				})
				cnt++
			}
			e.ws[i].vtb[s*window+d] = bucket[:0]
		}
		e.occRows[idx] = rows
		e.occCnt[idx] = cnt
	}
}

// HasTickDriven reports whether any currently attached process carries
// the TickDriven marker — i.e. whether sparse delivery is active and
// tick fast-forwarding can ever engage on this engine.
func (e *Engine) HasTickDriven() bool {
	for v := range e.isTD {
		if e.isTD[v] && e.procs[v] != nil {
			return true
		}
	}
	return false
}

// SetTickSkip enables or disables virtual-tick fast-forwarding (default
// on). Skipping never changes transcripts or metrics other than
// Metrics.TicksSkipped — it elides ticks that are provable no-ops — so
// the toggle exists for A/B measurement and paranoia, not semantics.
func (e *Engine) SetTickSkip(on bool) { e.skip = on }

// stepVertexVT steps one vertex of a parallel round, reading its inbox
// from box (the tick's ring slot) and admitting its output into the
// worker's per-(destination-shard, delay) buckets. Same pipeline order
// as deliverVT (see there); the dispatch record was resolved once by
// roundParallelVT and is read-only during the phase. Every stage is
// sender-local, so each decision is identical however vertices are
// scheduled, and every vertex is owned by exactly one goroutine per
// round, so its inbox, env, proc and PerNodeMaxBit entry are touched
// race-free.
func (e *Engine) stepVertexVT(v, r int, ws *workerState, box [][]Incoming) {
	p := e.procs[v]
	if p == nil || p.Halted() {
		box[v] = box[v][:0]
		return
	}
	ws.allHalted = false
	if e.topo != nil && e.epochOf[v] != e.curEpoch {
		e.catchUpVertex(v)
	}
	out := p.Step(&e.envs[v], r, box[v])
	box[v] = box[v][:0]
	if len(out) == 0 {
		return
	}
	if ws.nbrMark == nil {
		ws.nbrMark = make([]uint64, e.n)
	}
	ws.gen++
	for _, w := range e.sortedAdj[v] {
		ws.nbrMark[w] = ws.gen
	}
	vtr := &e.vtr
	tick, window := e.tick, e.window
	n := e.n
	capBits := e.edgeCapBits
	var dRng, fRng *xrand.Rand
	if vtr.needD {
		dRng = e.delayStream(v)
	}
	if vtr.needF {
		fRng = e.faultStream(v)
	}
	perNodeMax := e.metrics.PerNodeMaxBit
	maxSent := perNodeMax[v]
	var clamped int64
	for i := range out {
		msg := &out[i]
		to, payload := msg.To, msg.Payload
		if uint(to) >= uint(n) || ws.nbrMark[to] != ws.gen {
			ws.violations++
			continue
		}
		bits := 0
		if payload != nil {
			bits = payload.SizeBits()
		}
		if capBits > 0 {
			if ws.budget == nil {
				ws.budget = make([]int, n)
				ws.budgetGen = make([]uint64, n)
			}
			if ws.budgetGen[to] != ws.gen {
				ws.budgetGen[to] = ws.gen
				ws.budget[to] = 0
			}
			if ws.budget[to]+bits > capBits {
				ws.capped++
				continue
			}
			ws.budget[to] += bits
		}
		switch vtr.fk {
		case fkNone:
		case fkPartition:
			if v%vtr.fGroups != to%vtr.fGroups {
				ws.dropped++
				continue
			}
		case fkDrop:
			if fRng.Bernoulli(vtr.fP) {
				ws.dropped++
				continue
			}
		case fkDropAll:
			ws.dropped++
			continue
		default:
			if e.fault.Drop(fRng, tick, v, to) {
				ws.dropped++
				continue
			}
		}
		var d int
		switch vtr.dk {
		case dkFixed:
			d = vtr.d0
		case dkUniform:
			d = vtr.d0 + dRng.Intn(vtr.dSpan)
		case dkGeo:
			d = dRng.GeometricP(vtr.dP)
			if d > vtr.d1 {
				d = vtr.d1
			}
		case dkRegion:
			if v%vtr.dRegions == to%vtr.dRegions {
				d = vtr.d0
			} else {
				d = vtr.d1
			}
		default:
			d = e.delay.Delay(dRng, tick, v, to)
			if d < 1 {
				d = 1
				clamped++
			} else if d >= window {
				d = window - 1
				clamped++
			}
		}
		ws.messages++
		ws.bits += int64(bits)
		if bits > ws.maxMsgBits {
			ws.maxMsgBits = bits
		}
		if bits > maxSent {
			maxSent = bits
		}
		idx := int(e.shardOf[to])*window + d
		ws.vtb[idx] = append(ws.vtb[idx],
			routed{to: int32(to), from: int32(v), payload: payload})
	}
	ws.delayClamped += clamped
	perNodeMax[v] = maxSent
	if cap(out) > cap(e.envs[v].scratch) {
		e.envs[v].scratch = out[:0]
	}
}
