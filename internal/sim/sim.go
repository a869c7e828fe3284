// Package sim implements the synchronous message-passing model of
// Section 2 of the paper: computation proceeds in rounds, a message sent
// over an edge in round r is delivered at the start of round r+1, local
// computation is free, and the engine stamps the true sender on every
// message so that Byzantine nodes cannot fake their IDs.
//
// The engine is deterministic: identical seeds and processes produce
// identical executions, which makes every experiment row reproducible.
// It runs serially by default; SetParallelism switches it to a sharded
// worker-pool mode that steps vertices concurrently and then merges
// outboxes in ascending sender order, so delivery order, edge-capacity
// decisions, and metrics are byte-for-byte identical to the serial
// engine (see the ordering notes on roundParallelVT and mergeShardVT).
//
// The network may be static (a graph.Graph — the zero-overhead fast
// path) or mutable (any other Topology): a mutable topology is
// epoch-stamped, neighborhoods are re-resolved into per-vertex buffers
// only when the epoch changes, and membership turns over at round
// boundaries via Detach/AttachAt with slot recycling, so churn runs
// share the static engine's allocation-free steady state and its
// serial/parallel bit-equality. New is the constructor for both cases;
// functional options select seed, parallelism, edge capacity, and
// delivery models.
//
// There is one scheduler: every admitted message is placed into a
// calendar-queue delivery ring on virtual time, keyed on (deliver tick,
// sender slot, per-sender send sequence), with latency drawn from
// per-sender split streams — see delay.go for the determinism argument.
// Synchronous rounds are its unit-latency case: with no DelayModel
// installed every message takes exactly one tick, the ring has two
// slots, and no stream is drawn. Partial synchrony (a DelayModel and/or
// FaultModel) is a configuration of the same ring, not a different
// engine.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"byzcount/internal/graph"
	"byzcount/internal/xrand"
)

// NodeID is a node identifier drawn uniformly from the full 64-bit space.
// Per the model, IDs are comparable black boxes that leak no information
// about the network size.
type NodeID uint64

// Topology is the engine's view of a mutable network: a dense slot space
// (alive slots plus recycled ones), per-slot neighbor multisets, and an
// epoch counter that must be bumped on every structural change. The
// engine re-resolves a vertex's neighborhood (into reusable buffers, so
// steady-state rounds stay allocation-free) exactly when the topology's
// epoch differs from the vertex's last-seen epoch. Topologies may only
// change at round boundaries — from a between-rounds hook (see
// SetBetweenRounds), never from a Step.
type Topology interface {
	// Slots is the size of the vertex index space, alive or not.
	Slots() int
	// Alive reports whether slot v currently hosts a node.
	Alive(v int) bool
	// Epoch is a counter bumped on every structural change (join, leave,
	// rewire). A constant epoch means the engine never re-resolves.
	Epoch() uint64
	// EpochOf reports the Epoch value at which slot v's neighborhood
	// last changed (0 if never). It lets the engine refresh only the
	// slots a churn event actually touched — O(churn * degree) per
	// round instead of O(n * degree) — so implementations must stamp
	// every slot whose neighbor multiset (or whose presence in others'
	// multisets) a mutation alters.
	EpochOf(v int) uint64
	// AppendNeighbors appends v's neighbor multiset to buf and returns
	// the extended slice (one entry per incident edge; duplicates mean
	// parallel edges). It must not retain buf.
	AppendNeighbors(v int, buf []int) []int
}

// staleEpoch marks a vertex whose neighborhood has never been resolved
// (or was force-invalidated by AttachAt); topology epochs start at 0 and
// only increment, so they never collide with it.
const staleEpoch = ^uint64(0)

// TopologyDegrees is the optional Topology extension that serves as the
// engine's slab capacity hint: when a topology can report per-slot
// degrees up front (static implicit families always can), the topology
// constructor pre-carves every Env's Neighbors/NeighborIDs and
// the sorted-adjacency buffer out of bounded slab chunks. The first
// lazy resolve of each vertex then appends into its carved buffer
// instead of growing a nil slice, so a million-slot engine's first
// round costs O(slots/chunk) slab allocations instead of three
// per-vertex allocations each.
type TopologyDegrees interface {
	// Degree reports slot v's current neighbor-multiset size.
	Degree(v int) int
}

// slabChunkEntries bounds one slab chunk (2MiB for []int): big enough
// that chunk turnover vanishes in construction cost, small enough that
// million-slot engines never demand one giant contiguous block or pay
// append-doubling copies.
const slabChunkEntries = 1 << 18

// slab carves exact-capacity slices out of bounded chunks. Each carve
// is a three-index sub-slice (its own capacity limit, so a later append
// past the carved degree safely migrates that slice instead of
// clobbering its neighbor), chunks are never grown or copied, and
// at most one carve's worth of tail waste is abandoned per chunk.
type slab[T any] struct {
	cur       []T
	remaining int // entries still expected; sizes the next chunk
}

func newSlab[T any](total int) *slab[T] { return &slab[T]{remaining: total} }

// carve returns a zero-length slice with capacity exactly n, backed by
// the current chunk (a fresh chunk is carved when n does not fit).
func (s *slab[T]) carve(n int) []T {
	if len(s.cur)+n > cap(s.cur) {
		size := s.remaining
		if size > slabChunkEntries {
			size = slabChunkEntries
		}
		if size < n {
			size = n // single carve larger than the chunk bound
		}
		s.cur = make([]T, 0, size)
	}
	lo := len(s.cur)
	s.cur = s.cur[:lo+n]
	s.remaining -= n
	return s.cur[lo : lo : lo+n]
}

// Payload is the interface satisfied by all message payloads. SizeBits
// reports the payload's size for the message-size metrics that distinguish
// the CONGEST-style algorithm (small messages) from the LOCAL one.
type Payload interface {
	SizeBits() int
}

// Incoming is a delivered message. From is the true sender vertex and
// FromID its true ID — both stamped by the engine, never by the sender.
type Incoming struct {
	From    int
	FromID  NodeID
	Payload Payload
}

// Outgoing is a message to send. To must be a neighbor of the sender in
// the network graph; messages addressed elsewhere are dropped and counted
// as violations.
type Outgoing struct {
	To      int
	Payload Payload
}

// Env carries the static, strictly local knowledge a process is allowed:
// its vertex index (for the engine's bookkeeping only — protocols must not
// infer anything from it), its random ID, its degree, its neighbor list,
// and a private random stream.
type Env struct {
	Vertex    int
	ID        NodeID
	Degree    int
	Neighbors []int
	// NeighborIDs[k] is the ID of Neighbors[k]. The paper's Algorithm 1
	// starts from the inclusive 1-hop neighborhood B(u,1), so knowledge of
	// neighbor IDs is part of the model.
	NeighborIDs []NodeID

	// rand is the slot's private stream, derived lazily by Rand(); root
	// is the engine stream it derives from. A stream costs ~100 B and
	// three allocations until its 274th draw (4.9 KiB after), so slots
	// whose processes never draw — flood workloads, vacant slots,
	// adversaries — must not pay for one; at a million slots eager
	// derivation would be ~3M allocations for nothing.
	rand *xrand.Rand
	root *xrand.Rand

	// scratch is the env's reusable outgoing buffer. Each vertex is
	// stepped by exactly one goroutine per round, and the engine consumes
	// the slice returned by Step before that vertex's next Step, so the
	// buffer can be recycled round after round. After a Step returns, the
	// engine adopts the returned slice back into scratch (keeping any
	// growth), which is what makes steady-state sending allocation-free.
	scratch []Outgoing
}

// Rand returns the slot's private random stream, deriving it from the
// engine seed on first use. The stream is a pure function of
// (engine seed, vertex) — when it is created changes nothing about what
// it draws — and it persists across membership turnover: a joiner
// recycling the slot continues the stream where the leaver left it.
func (e *Env) Rand() *xrand.Rand {
	if e.rand == nil {
		e.rand = e.root.SplitN("node", e.Vertex)
	}
	return e.rand
}

// WithRand returns a pointer to a copy of the env using rng as its
// private stream — the constructor for standalone envs in tests and
// examples. The receiver is never mutated: the copy shares the
// receiver's slices (Neighbors, NeighborIDs, scratch) but replaces the
// stream, so an engine-owned env passed through WithRand keeps its own
// lazily-derived stream. Engine slots derive theirs from the engine
// seed instead.
func (e *Env) WithRand(rng *xrand.Rand) *Env {
	c := *e
	c.rand = rng
	return &c
}

// Scratch returns the env's reusable outgoing buffer truncated to zero
// length. Step implementations append into it (directly or via
// AppendBroadcast) and return it; once the buffer has grown to the
// workload's high-water mark, building the round's output allocates
// nothing. The returned slice is engine-owned from the moment Step
// returns until the process's next Step — processes must not retain it
// across rounds or mix it with Broadcast in the same Step.
func (e *Env) Scratch() []Outgoing { return e.scratch[:0] }

// AppendBroadcast appends one Outgoing per incident edge carrying
// payload to buf and returns the extended slice. With parallel edges a
// neighbor receives one copy per edge, matching the model where each
// edge is an independent channel.
func (e *Env) AppendBroadcast(buf []Outgoing, payload Payload) []Outgoing {
	for _, w := range e.Neighbors {
		buf = append(buf, Outgoing{To: w, Payload: payload})
	}
	return buf
}

// Broadcast returns one Outgoing per incident edge carrying payload,
// built in the env's scratch buffer (see Scratch for the ownership
// rules): after the first round it performs no allocation.
func (e *Env) Broadcast(payload Payload) []Outgoing {
	out := e.AppendBroadcast(e.scratch[:0], payload)
	e.scratch = out
	return out
}

// Proc is a per-node process. Step is invoked exactly once per round with
// the messages delivered this round and returns the messages to send.
// Halted processes are skipped (they neither receive nor send); once
// Halted returns true it must remain true.
//
// Ownership: the slice returned by Step (and the inbox slice passed in)
// belongs to the engine until the process's next Step. The engine
// recycles returned slices as the vertex's future scratch buffer (see
// Env.Scratch), so processes must not retain either across rounds.
type Proc interface {
	Step(env *Env, round int, in []Incoming) []Outgoing
	Halted() bool
}

// Sequential is a former engine marker for processes that shared
// mutable state across vertices.
//
// Deprecated: the engine steps every process independently and never
// checks this interface; shared adversary state is fixed before Run.
type Sequential interface {
	StepsSequentially()
}

// Metrics aggregates message-level measurements across a run.
type Metrics struct {
	Rounds     int   // rounds executed
	Messages   int64 // messages delivered
	Bits       int64 // total payload bits delivered
	MaxMsgBits int   // largest single payload
	Violations int64 // messages addressed to non-neighbors (dropped)
	Capped     int64 // messages dropped by the CONGEST edge capacity
	Dropped    int64 // messages lost to the fault model (admitted, never delivered)
	// DelayClamped counts admitted messages whose DelayModel returned a
	// latency outside [1, MaxDelay] and had it clamped into range. The
	// parsed built-in models never clamp (their parameters are
	// validated), so a nonzero count flags a misconfigured hand-built
	// model instead of silently reshaping its schedule.
	DelayClamped int64
	// TicksSkipped counts empty virtual ticks the serial scheduler
	// fast-forwarded over (see TickDriven). Skipped ticks still count in
	// Rounds and MessagesByRound, so the series' shape is unchanged.
	TicksSkipped  int64
	PerNodeMaxBit []int // per-vertex largest payload sent
	// MessagesByRound[r] is the number of messages sent in round r — the
	// per-round traffic series that makes Algorithm 2's phase structure
	// visible (see report.Sparkline).
	MessagesByRound []int64
}

// routed is an admitted message waiting in an outbox for the merge
// phase of a parallel round.
type routed struct {
	to      int32
	from    int32
	payload Payload
}

// workerState is the per-worker scratch of one round: admission budgets
// and shard-local metric accumulators. The accumulators are flushed into
// Metrics after every round; all of them are order-independent
// (integer sums and maxes), so the flush order never changes totals.
type workerState struct {
	// budget[w] is the payload bits the current sender has used toward
	// destination w this round; budgetGen lazily resets it per sender so
	// the slice never needs clearing (the indexed-slice replacement for
	// the old per-round map).
	budget    []int
	budgetGen []uint64
	gen       uint64

	// nbrMark[w] == gen marks w as a neighbor of the sender being
	// processed. Stamping costs O(degree) per sender but makes every
	// membership check one predictable load — a scan or binary search
	// mispredicts its data-dependent exit on nearly every message,
	// which costs more than the whole map lookup it replaced.
	nbrMark []uint64

	// vtb[s*window+d] holds this worker's admitted messages destined
	// for shard s with latency d (1 <= d < window; index d == 0 is never
	// used), in ascending sender order — the worker steps a contiguous
	// vertex range in order. Keying by delay rather than by ring slot
	// keeps one bucket set per latency: at unit latency only the d == 1
	// buckets ever fill, instead of two slot-indexed sets alternating.
	// Buckets are merged into ring slot (tick+d) mod window EVERY round
	// (not at the delivery tick), so each ring row accumulates messages
	// round-major, sender-major — exactly the serial schedule.
	vtb [][]routed

	messages     int64
	bits         int64
	violations   int64
	capped       int64
	dropped      int64
	delayClamped int64
	maxMsgBits   int
	allHalted    bool

	// liveAlways / tdHalts are the sparse virtual-time halt bookkeeping
	// of one round: how many live always-step procs this worker stepped,
	// and how many TickDriven procs halted during their own Step. Reset
	// by roundParallelVT before the step phase and summed by the
	// coordinator after the merge barrier — the parallel split of
	// roundSparseVT's liveAlways counter and tdLive decrements.
	liveAlways int
	tdHalts    int
}

// Engine drives a set of processes over a network in lock-step rounds.
// The network is either a static graph or a mutable Topology (both via
// New); in the latter case vacant slots carry nil processes and
// membership changes at round boundaries via Detach/AttachAt.
type Engine struct {
	g    *graph.Graph // static substrate; nil for topology engines
	topo Topology     // mutable substrate; nil for static engines
	n    int          // slot capacity (== g.N() for static engines)
	root *xrand.Rand  // engine seed stream; derives per-slot streams on growth

	// idStream assigns node IDs: the initially alive slots draw in slot
	// order at construction, and assignID serves any engine-assigned ID
	// later (joiner IDs normally arrive explicitly via AttachAt).
	idStream *xrand.Rand

	procs []Proc
	envs  []Env
	ids   []NodeID

	// vertexOf inverts ids for O(1) VertexOf lookups. Detach deletes the
	// departed ID and AttachAt inserts the joiner's, so under balanced
	// churn the map's population is stable and updates never allocate.
	vertexOf map[NodeID]int

	// epochOf[v] is the topology epoch v's neighborhood buffers were
	// last resolved against (topology engines only). curEpoch caches
	// Topology.Epoch() once per round.
	epochOf  []uint64
	curEpoch uint64

	// betweenRounds, if non-nil, runs after every round's delivery and
	// before the all-halted check — the churn hook point.
	betweenRounds func(round int) error

	// regrow is set when the slot arrays grew mid-run (topology growth):
	// worker ranges, shard maps, and scratch are sized to n and must be
	// rebuilt before the next round.
	regrow bool

	// hookAttached records that the current between-rounds hook invoked
	// AttachAt; Run then suppresses the all-halted early return so the
	// joiners get their promised first Step next round.
	hookAttached bool

	// stop, if non-nil, is evaluated after every round; returning true
	// ends the run early (used for "all honest nodes decided" detection).
	stop func(round int) bool

	// cancel, if non-nil, is polled at the top of every round; a closed
	// channel aborts the run with ErrCanceled. This is the cooperative
	// escape hatch for pure-CPU runs: a per-cell timeout or a SIGTERM
	// drain cannot preempt a round, but it never has to wait for more
	// than one.
	cancel <-chan struct{}

	// edgeCapBits, when positive, enforces the CONGEST model's bandwidth
	// restriction: a sender may push at most this many payload bits over
	// one edge per round; excess messages on that edge are dropped and
	// counted in Metrics.Capped. Zero means the LOCAL model (unbounded).
	edgeCapBits int

	metrics Metrics

	// sortedAdj[v] is v's adjacency, deduplicated and sorted ascending.
	// Each round a sender stamps these into its worker's nbrMark array
	// so destination checks are one compare (replaces the old
	// []map[int]bool, whose per-vertex maps dominated setup memory).
	sortedAdj [][]int32

	// --- delivery ---
	// delay/fault shape the delivery ring below: nil delay means unit
	// latency (every message arrives the next round) and nil fault means
	// no message is lost. Configure both before the first Run
	// (SetDelayModel/SetFaultModel).
	delay DelayModel
	fault FaultModel
	// window is the ring length: the delay model's MaxDelay()+1, at
	// least 2, so an in-flight message's slot (tick+d) mod window never
	// collides with the slot currently being delivered.
	window int
	// ring[s][v] is vertex v's inbox for virtual ticks ≡ s (mod window),
	// the engine's only delivery structure — a calendar queue that, at
	// unit latency (window 2), is a double buffer whose halves swap
	// roles by tick parity. Rows are truncated after delivery, never
	// freed, so each row stays at its high-water capacity and together
	// with the Env scratch buffers on the send side steady-state rounds
	// allocate nothing (see DESIGN.md, "Memory model").
	ring [][][]Incoming
	// delayRng[v] / faultRng[v] are v's private latency/fault streams
	// (pure functions of the engine seed and v), derived lazily on v's
	// first draw. Only models that draw get streams at all (see
	// DelayModel.Draws), so unit latency derives none.
	delayRng []*xrand.Rand
	faultRng []*xrand.Rand
	// tick is the absolute virtual tick of the round being executed —
	// the engine's total executed rounds, not Run's local round index —
	// published to pool workers via dispatch. Ring indexing and the
	// models' round argument use it so in-flight messages stay aligned
	// across consecutive Run calls.
	tick int
	// vtr is the tick's devirtualized model dispatch (see resolveVT),
	// resolved once per parallel round before the step phase and read
	// by every worker; serial rounds resolve into a local instead.
	vtr vtRound

	// --- sparse delivery ---
	// sparse is set by ensureState when at least one TickDriven proc is
	// attached: ring slots then maintain the occupancy overlay below and
	// rounds step only the union of always-step vertices and occupied
	// rows — serially on the calling goroutine, in parallel via the
	// phaseStepVTSparse/phaseMergeVTSparse pool phases. Dense workloads
	// (no marked procs) keep the plain lanes and pay nothing.
	sparse bool
	// skip enables fast-forwarding over empty ticks when every live
	// proc is TickDriven (default on; see SetTickSkip / TickDriven).
	skip bool
	// occRows[shard*window+slot] lists the vertex rows of shard `shard`
	// that may hold pending messages in ring slot `slot`
	// (append-on-first-message; entries can be stale after a Detach
	// truncated the row, and duplicated after slot recycling — delivery
	// sorts and dedupes). occCnt[shard*window+slot] is the exact
	// pending-message count, so the all-empty-tick test is an O(shards)
	// reduction (see occSlotEmpty). The layout is shard-major so each
	// merge worker owns one contiguous [window]-sized region; serial
	// engines have one shard and the index degenerates to the slot
	// itself, which is what the serial lanes address directly.
	occRows [][]int32
	occCnt  []int64
	// alwaysStep lists (ascending) the vertices whose procs do NOT
	// carry the TickDriven marker — they are stepped on every tick,
	// preserving the dense semantics for round-driven procs. isTD is
	// the marker membership mask; tdLive counts live marked procs
	// (maintained at Step-time halts and membership changes, recounted
	// at Run entry).
	alwaysStep []int32
	isTD       []bool
	tdLive     int

	// --- parallel mode ---
	workers int            // requested Step-shard workers; <=1 means serial
	ranges  [][2]int       // contiguous vertex ranges, one per worker
	shardOf []int32        // vertex -> owning range index
	ws      []*workerState // one per range worker; [0] serves serial rounds

	// vtbReserve, when positive, is the per-bucket capacity every
	// per-(worker, destination-shard, delay) outbox is pre-sized to
	// (see ReserveOutbox) — recorded here so the reservation survives
	// the worker-state rebuilds of SetParallelism and topology growth.
	vtbReserve int

	// Persistent worker pool. Spawning goroutines per round allocates
	// (closure + scheduler bookkeeping), which alone breaks the
	// zero-allocs-per-round contract; instead Run starts len(ranges)
	// workers once, parks them on their wake channels, and drives each
	// round's step and merge phases by sending phase tokens. Channel
	// sends of small scalars and WaitGroup operations allocate nothing,
	// so a steady-state parallel round performs zero heap allocations.
	// The pool lives exactly as long as one Run call (started after
	// ensureState, stopped on return), so engines never leak goroutines.
	wake   []chan poolPhase // one per range worker
	poolWG sync.WaitGroup   // completion barrier for each dispatched phase
	round  int              // round being executed, published via dispatch
	pool   bool             // workers currently parked on wake
}

// poolPhase is a work token sent to pool workers.
type poolPhase uint8

const (
	phaseStepVT        poolPhase = iota // step contiguous range into per-(shard, delay) buckets
	phaseMergeVT                        // merge this worker's destination shard into the ring
	phaseStepVTSparse                   // step only occupied/always-step vertices of the range
	phaseMergeVTSparse                  // merge this worker's shard, folding in occupancy
	phaseExit                           // unwind the worker goroutine
)

// ErrSizeMismatch is returned when the number of attached processes does
// not equal the number of graph vertices.
var ErrSizeMismatch = errors.New("sim: process count does not match vertex count")

// ErrCanceled is returned by Run when the channel installed with
// SetCancel closes mid-run. The engine stops on a round boundary, so
// metrics and transcripts cover exactly the rounds executed; the run's
// results are partial and should be discarded, not interpreted.
var ErrCanceled = errors.New("sim: run canceled")

// newStaticEngine builds the engine over a static graph. Node IDs and
// per-node random streams derive from seed; vertex v's stream is
// independent of all others.
//
// Construction ingests the graph's CSR arrays directly: every Env's
// Neighbors and NeighborIDs slices are carved out of engine-owned
// bounded slab chunks sized to the total arc count (O(arcs/chunk)
// exact-size allocations — no per-vertex copies and no append-doubling
// spikes, so a million-slot engine's tables build without transient 2×
// peaks), and the sorted-deduplicated adjacency used by the membership
// stamps aliases the graph's shared sorted CSR — no per-vertex sorting.
// Static engines never mutate those rows, so aliasing an immutable
// (possibly cache-shared) graph is safe; topology engines re-resolve
// into private buffers instead.
func newStaticEngine(g *graph.Graph, seed uint64) *Engine {
	e := newEngine(g.N(), seed)
	e.g = g
	for v := 0; v < e.n; v++ {
		e.assignID(v)
	}
	arcs := 0
	for v := 0; v < e.n; v++ {
		arcs += g.Degree(v)
	}
	nbrSlab := newSlab[int](arcs)
	idSlab := newSlab[NodeID](arcs)
	for v := 0; v < e.n; v++ {
		adj := g.Adj(v)
		nbrs := nbrSlab.carve(len(adj))
		ids := idSlab.carve(len(adj))
		for _, w := range adj {
			nbrs = append(nbrs, int(w))
			ids = append(ids, e.ids[w])
		}
		e.sortedAdj[v] = g.SortedAdj(v)
		e.envs[v].ID = e.ids[v]
		e.envs[v].Degree = len(adj)
		e.envs[v].Neighbors = nbrs
		e.envs[v].NeighborIDs = ids
	}
	return e
}

// newTopologyEngine builds the engine over a mutable topology. IDs are
// assigned to the initially alive slots in ascending slot order from the
// same seed-derived stream the static path uses; vacant slots receive an ID
// (and a process) only when a joiner arrives via AttachAt. Neighborhoods
// are resolved lazily against the topology's epoch, so construction does
// not walk adjacency at all.
//
// When the topology also implements TopologyDegrees, its degrees serve
// as slab budgets: every Env's Neighbors/NeighborIDs and the
// sorted-adjacency buffer are pre-carved at exact degree capacity out
// of bounded chunks, so the lazy resolves append in place instead of
// growing nil slices — the difference between O(slots/chunk) and three
// allocations per slot on a million-slot first round. Degrees are a
// hint, not a contract: a slot that later outgrows its carve migrates
// to a private buffer on append, so mutable topologies stay correct.
func newTopologyEngine(topo Topology, seed uint64) *Engine {
	e := newEngine(topo.Slots(), seed)
	e.topo = topo
	e.epochOf = make([]uint64, e.n)
	for v := 0; v < e.n; v++ {
		e.epochOf[v] = staleEpoch
		if topo.Alive(v) {
			e.assignID(v)
			e.envs[v].ID = e.ids[v]
		}
	}
	if dg, ok := topo.(TopologyDegrees); ok {
		arcs := 0
		for v := 0; v < e.n; v++ {
			arcs += dg.Degree(v)
		}
		nbrSlab := newSlab[int](arcs)
		idSlab := newSlab[NodeID](arcs)
		saSlab := newSlab[int32](arcs)
		for v := 0; v < e.n; v++ {
			d := dg.Degree(v)
			e.envs[v].Neighbors = nbrSlab.carve(d)
			e.envs[v].NeighborIDs = idSlab.carve(d)
			e.sortedAdj[v] = saSlab.carve(d)
		}
	}
	return e
}

// newEngine builds the substrate-independent core: slot arrays sized n
// and per-slot random streams. A slot's stream is a pure function of
// (seed, slot), so it survives membership turnover — a joiner recycling
// slot v continues v's stream where the leaver left it, which is what
// keeps churn runs reproducible however the membership history unfolds.
func newEngine(n int, seed uint64) *Engine {
	root := xrand.New(seed)
	e := &Engine{
		n:         n,
		root:      root,
		skip:      true,
		idStream:  root.Split("ids"),
		envs:      make([]Env, n),
		ids:       make([]NodeID, n),
		vertexOf:  make(map[NodeID]int, n),
		sortedAdj: make([][]int32, n),
	}
	e.metrics.PerNodeMaxBit = make([]int, n)
	for v := 0; v < n; v++ {
		e.envs[v] = Env{Vertex: v, root: root}
	}
	return e
}

// assignID draws a fresh unique ID for vertex v from the engine's ID
// stream.
func (e *Engine) assignID(v int) {
	id := NodeID(e.idStream.ID())
	for _, dup := e.vertexOf[id]; dup; _, dup = e.vertexOf[id] {
		id = NodeID(e.idStream.ID())
	}
	e.vertexOf[id] = v
	e.ids[v] = id
}

// dedupSorted compacts consecutive duplicates (parallel edges) in place.
func dedupSorted(s []int32) []int32 {
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Attach installs one process per vertex slot. It must be called before
// Run. Nil entries mark vacant slots (dead topology slots awaiting a
// joiner); they are skipped every round until AttachAt fills them.
func (e *Engine) Attach(procs []Proc) error {
	if len(procs) != e.n {
		return fmt.Errorf("%w: %d processes for %d vertices", ErrSizeMismatch, len(procs), e.n)
	}
	e.procs = procs
	e.ws = nil // ensureState re-derives the sparse lane from the new procs
	e.alwaysStep = e.alwaysStep[:0]
	e.isTD = make([]bool, len(procs))
	for v, p := range procs {
		if _, ok := p.(TickDriven); ok {
			e.isTD[v] = true
		} else if p != nil {
			e.alwaysStep = append(e.alwaysStep, int32(v))
		}
	}
	return nil
}

// SetBetweenRounds installs a hook that runs at every round boundary —
// after the round's messages have been delivered and before the
// all-halted check. It is the only place topology mutations and
// Detach/AttachAt membership changes are allowed; a non-nil error aborts
// the run. Matching the dynamic-network convention, a node that departs
// in the hook never sees the messages delivered to it this boundary, and
// processes attached in the hook first step in the next round — a round
// in which every pre-existing process had halted does not end the run
// when the hook attached fresh ones.
func (e *Engine) SetBetweenRounds(hook func(round int) error) { e.betweenRounds = hook }

// Detach retires the process at vertex v at a round boundary (a leave):
// the slot's pending deliveries are dropped, its ID leaves the index,
// and the slot is skipped by every subsequent round until AttachAt
// recycles it. The slot's buffers — inbox slabs, scratch, random stream
// — are retained, so a later joiner inherits their capacity and churn
// stays allocation-free in steady state.
func (e *Engine) Detach(v int) error {
	if v < 0 || v >= e.n || e.procs == nil || e.procs[v] == nil {
		return fmt.Errorf("sim: Detach of vacant vertex %d", v)
	}
	delete(e.vertexOf, e.ids[v])
	if e.isTD != nil && v < len(e.isTD) && e.isTD[v] {
		if !e.procs[v].Halted() {
			e.tdLive--
		}
		e.isTD[v] = false
	} else if i, found := slices.BinarySearch(e.alwaysStep, int32(v)); found {
		e.alwaysStep = slices.Delete(e.alwaysStep, i, i+1)
	}
	e.procs[v] = nil
	// Pending deliveries live in the ring, up to window-1 ticks out;
	// drop them all (the departed node never sees them). Sparse engines
	// keep the per-slot counts exact; the occupied-row entries go stale,
	// which delivery tolerates (it re-checks row lengths).
	for s := range e.ring {
		if row := e.ring[s][v]; len(row) > 0 {
			if e.sparse {
				if idx := e.occIdx(v, s); idx < len(e.occCnt) {
					e.occCnt[idx] -= int64(len(row))
				}
			}
			e.ring[s][v] = row[:0]
		}
	}
	return nil
}

// AttachAt installs process p at vertex v with node ID id at a round
// boundary (a join). The slot must be vacant — freshly detached, dead
// since construction, or beyond the current capacity (the arrays grow
// to cover it). Recycled slots keep their random stream, resuming where
// the departed occupant left it, so executions remain a pure function
// of the seed and the membership history. On a static engine the
// neighbors' cached NeighborIDs entries for v are patched in place; on
// a topology engine every vertex re-resolves at the next epoch change,
// and v itself is force-refreshed here.
func (e *Engine) AttachAt(v int, id NodeID, p Proc) error {
	if p == nil {
		return fmt.Errorf("sim: AttachAt(%d) with nil process", v)
	}
	if v < 0 {
		return fmt.Errorf("sim: AttachAt of negative vertex %d", v)
	}
	if e.procs == nil {
		return errors.New("sim: AttachAt before Attach")
	}
	if v >= e.n {
		if e.topo == nil {
			return fmt.Errorf("sim: AttachAt(%d) beyond the static graph's %d vertices", v, e.n)
		}
		e.growTo(v + 1)
	}
	if e.procs[v] != nil {
		return fmt.Errorf("sim: AttachAt(%d): slot already occupied", v)
	}
	if w, dup := e.vertexOf[id]; dup {
		return fmt.Errorf("sim: AttachAt(%d): ID already held by vertex %d", v, w)
	}
	e.ids[v] = id
	e.vertexOf[id] = v
	env := &e.envs[v]
	env.ID = id
	for s := range e.ring {
		if row := e.ring[s][v]; len(row) > 0 {
			if e.sparse {
				if idx := e.occIdx(v, s); idx < len(e.occCnt) {
					e.occCnt[idx] -= int64(len(row))
				}
			}
			e.ring[s][v] = row[:0]
		}
	}
	e.procs[v] = p
	e.hookAttached = true
	if _, ok := p.(TickDriven); ok {
		if e.isTD == nil || len(e.isTD) < e.n {
			grown := make([]bool, e.n)
			copy(grown, e.isTD)
			e.isTD = grown
		}
		e.isTD[v] = true
		if !p.Halted() {
			e.tdLive++
		}
	} else {
		if i, found := slices.BinarySearch(e.alwaysStep, int32(v)); !found {
			e.alwaysStep = slices.Insert(e.alwaysStep, i, int32(v))
		}
	}
	e.patchNeighborIDs(v)
	return nil
}

// patchNeighborIDs updates the cached NeighborIDs entries pointing at v
// after its ID changed. On a topology engine v's own neighborhood is
// re-resolved first (the join usually bumped the epoch anyway); its
// neighbors' entries are patched in place so even an epoch-neutral
// replacement is observed immediately.
func (e *Engine) patchNeighborIDs(v int) {
	if e.topo != nil {
		e.refreshVertex(v)
		for _, w := range e.envs[v].Neighbors {
			patchOne(&e.envs[w], v, e.ids[v])
		}
		return
	}
	for _, w := range e.g.Adj(v) {
		patchOne(&e.envs[w], v, e.ids[v])
	}
}

// patchOne rewrites env's NeighborIDs entries for neighbor v.
func patchOne(env *Env, v int, id NodeID) {
	for k, x := range env.Neighbors {
		if x == v {
			env.NeighborIDs[k] = id
		}
	}
}

// growTo extends the slot arrays to at least m vertices (topology
// growth beyond the constructed capacity). Growth allocates — it is a
// capacity change, not steady state — and flags the worker ranges,
// shard map, and scratch for rebuild at the next round boundary. The
// arrays grow with doubling headroom (the extra slots sit vacant until
// the topology reaches them), so a net-growing churn run that adds one
// slot per round pays O(log growth) rebuilds and pool restarts, not
// one per round.
func (e *Engine) growTo(m int) {
	if m < 2*e.n {
		m = 2 * e.n
	}
	for v := e.n; v < m; v++ {
		e.procs = append(e.procs, nil)
		e.ids = append(e.ids, 0)
		e.envs = append(e.envs, Env{Vertex: v, root: e.root})
		e.sortedAdj = append(e.sortedAdj, nil)
		e.metrics.PerNodeMaxBit = append(e.metrics.PerNodeMaxBit, 0)
		if e.epochOf != nil {
			e.epochOf = append(e.epochOf, staleEpoch)
		}
		if e.isTD != nil {
			e.isTD = append(e.isTD, false)
		}
	}
	for s := range e.ring {
		for len(e.ring[s]) < m {
			e.ring[s] = append(e.ring[s], nil)
		}
	}
	for len(e.delayRng) > 0 && len(e.delayRng) < m {
		e.delayRng = append(e.delayRng, nil)
	}
	for len(e.faultRng) > 0 && len(e.faultRng) < m {
		e.faultRng = append(e.faultRng, nil)
	}
	e.n = m
	e.regrow = true
}

// catchUpVertex brings a vertex whose last-seen epoch is stale up to
// the current one: its neighborhood buffers are rebuilt only if the
// topology stamped the slot since the vertex last looked (EpochOf),
// otherwise the stamp alone advances. Rounds without churn therefore
// cost one compare per vertex, and churn rounds re-resolve only the
// slots the events actually touched.
func (e *Engine) catchUpVertex(v int) {
	if e.epochOf[v] != staleEpoch && e.topo.EpochOf(v) <= e.epochOf[v] {
		e.epochOf[v] = e.curEpoch
		return
	}
	e.refreshVertex(v)
}

// refreshVertex re-resolves v's neighborhood against the mutable
// topology, reusing the env's slices and the sorted-adjacency buffer so
// a refresh at the buffers' high-water capacity allocates nothing.
func (e *Engine) refreshVertex(v int) {
	env := &e.envs[v]
	nbrs := e.topo.AppendNeighbors(v, env.Neighbors[:0])
	env.Neighbors = nbrs
	env.Degree = len(nbrs)
	env.ID = e.ids[v]
	ids := env.NeighborIDs[:0]
	for _, w := range nbrs {
		ids = append(ids, e.ids[w])
	}
	env.NeighborIDs = ids
	sa := e.sortedAdj[v][:0]
	for _, w := range nbrs {
		sa = append(sa, int32(w))
	}
	slices.Sort(sa)
	e.sortedAdj[v] = dedupSorted(sa)
	// Stamp the topology's live epoch, not the per-round cache: during a
	// round they are equal (topologies mutate only between rounds), but
	// an AttachAt-time refresh runs after the hook's mutations bumped the
	// epoch past the cache, and stamping the live value is what lets the
	// joiner's resolve stick instead of being redone next round.
	e.epochOf[v] = e.topo.Epoch()
}

// SetStopCondition installs a predicate evaluated after each round; the
// run ends early once it returns true.
func (e *Engine) SetStopCondition(stop func(round int) bool) { e.stop = stop }

// SetCancel installs a cancellation channel polled once per round:
// when done is closed, Run returns ErrCanceled at the next round
// boundary. nil (the default) disables the check. Unlike a stop
// condition, cancellation is an abort, not a result — Run reports the
// error so callers cannot mistake a partial run for a completed one.
func (e *Engine) SetCancel(done <-chan struct{}) { e.cancel = done }

// SetEdgeCapacity switches the engine from the LOCAL model (unbounded
// messages, the default) to the CONGEST model: at most bits payload bits
// per edge per round per sender. Messages beyond the budget are dropped
// and counted in Metrics.Capped. A "small-sized message" in the paper is
// O(log n) bits plus a constant number of node IDs; a cap of a few
// hundred bits admits Algorithm 2's beacons while rejecting Algorithm 1's
// topology dumps.
func (e *Engine) SetEdgeCapacity(bits int) {
	e.edgeCapBits = bits
}

// SetDelayModel installs a delivery-latency model; nil restores the
// default, unit latency (every message takes one round — the paper's
// synchronous model). Configure before the first Run: changing the
// model re-sizes the delivery ring, and messages still in flight do not
// survive that.
func (e *Engine) SetDelayModel(m DelayModel) {
	e.delay = m
	e.ws = nil // ring and buckets are (re)built by ensureState
	e.ring = nil
	e.window = 0
}

// DelayModel returns the installed delivery-latency model (nil = unit
// latency).
func (e *Engine) DelayModel() DelayModel { return e.delay }

// SetFaultModel installs a message-fault model; nil removes it (no
// message is lost). Like SetDelayModel, configure before the first Run:
// messages still in flight do not survive the change.
func (e *Engine) SetFaultModel(m FaultModel) {
	e.fault = m
	e.ws = nil
	e.ring = nil
	e.window = 0
}

// FaultModel returns the installed message-fault model (nil = none).
func (e *Engine) FaultModel() FaultModel { return e.fault }

// ReserveInbox pre-sizes every delivery-ring row to hold perRow
// messages without growing. Under a jittered delay model the per-(slot,
// vertex) delivery load is stochastic, so row capacities converge to
// their high-water marks only asymptotically — long steady-state runs
// keep paying rare amortized regrowth. A workload that knows a bound on
// simultaneous arrivals (for one message per edge per round: in-degree
// times the maximum delay) can reserve it up front and make warm rounds
// strictly allocation-free, which is what the perf workloads behind the
// TestSteadyStateAllocsVT* gates do. No-op before Attach; rows already
// at capacity perRow or above are left alone.
func (e *Engine) ReserveInbox(perRow int) {
	if perRow <= 0 || e.procs == nil {
		return
	}
	e.ensureState()
	for s := range e.ring {
		slot := e.ring[s]
		var slab []Incoming
		for v := range slot {
			if cap(slot[v]) >= perRow {
				continue
			}
			if slab == nil {
				slab = make([]Incoming, 0, len(slot)*perRow)
			}
			row := slab[len(slab) : len(slab) : len(slab)+perRow]
			slab = slab[:len(slab)+perRow]
			slot[v] = append(row, slot[v]...)
		}
	}
}

// ReserveOutbox pre-sizes every per-(worker, destination-shard, delay)
// outbox bucket of the parallel engine to hold perBucket messages
// without growing, and — on sparse engines — every occupied-row list to
// its shard's full size. It is ReserveInbox's
// send-side twin: under a jittered delay model the per-bucket load is
// stochastic, so bucket capacities converge to their high-water marks
// only asymptotically and long runs keep paying rare amortized
// regrowth; a workload that knows a burst bound can reserve it up front
// and make warm parallel sparse rounds strictly allocation-free. The
// reservation is remembered and re-applied when worker state is rebuilt
// (SetParallelism, topology growth). No-op before Attach.
func (e *Engine) ReserveOutbox(perBucket int) {
	if perBucket <= 0 || e.procs == nil {
		return
	}
	e.vtbReserve = perBucket
	e.ensureState()
	e.applyOutboxReserve()
}

// applyOutboxReserve carves each worker's outbox buckets out of one
// slab at the recorded per-bucket capacity (three-index slices, so a
// bucket overflowing its reservation regrows independently), and brings
// occupied-row lists up to shard capacity. Buckets already at or above
// the reservation are left alone.
func (e *Engine) applyOutboxReserve() {
	per := e.vtbReserve
	if per <= 0 {
		return
	}
	for _, ws := range e.ws {
		if ws.vtb == nil {
			continue
		}
		var slab []routed
		for i := range ws.vtb {
			if cap(ws.vtb[i]) >= per {
				continue
			}
			if slab == nil {
				slab = make([]routed, 0, len(ws.vtb)*per)
			}
			bucket := slab[len(slab) : len(slab) : len(slab)+per]
			slab = slab[:len(slab)+per]
			ws.vtb[i] = append(bucket, ws.vtb[i]...)
		}
	}
	if !e.sparse {
		return
	}
	for s, r := range e.ranges {
		size := r[1] - r[0]
		for slot := 0; slot < e.window; slot++ {
			idx := s*e.window + slot
			if idx < len(e.occRows) && cap(e.occRows[idx]) < size {
				grown := make([]int32, len(e.occRows[idx]), size)
				copy(grown, e.occRows[idx])
				e.occRows[idx] = grown
			}
		}
	}
}

// SetParallelism sets the number of Step-shard workers used by Run.
// Values <= 1 select the serial engine. Parallel execution is
// deterministic and bit-identical to serial execution for any worker
// count: each worker steps a contiguous vertex range into
// per-(destination-shard, delay) buckets, and the buckets are merged
// into the delivery ring in ascending sender order. Every process steps
// independently, so a process must not mutate state shared with other
// vertices during Run.
func (e *Engine) SetParallelism(workers int) {
	if workers < 1 {
		workers = 1
	}
	e.workers = workers
	e.ws = nil // force rebuild on next Run
}

// Parallelism reports the configured worker count (1 = serial).
func (e *Engine) Parallelism() int {
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// Graph returns the underlying static network graph, or nil for an
// engine built over a mutable Topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Topology returns the underlying mutable topology, or nil for an
// engine built over a static graph.
func (e *Engine) Topology() Topology { return e.topo }

// Slots returns the engine's vertex-slot capacity (alive plus vacant).
func (e *Engine) Slots() int { return e.n }

// ID returns the node ID of vertex v.
func (e *Engine) ID(v int) NodeID { return e.ids[v] }

// VertexOf returns the vertex with the given ID, or -1.
func (e *Engine) VertexOf(id NodeID) int {
	if v, ok := e.vertexOf[id]; ok {
		return v
	}
	return -1
}

// Proc returns the process attached to vertex v (nil before Attach).
func (e *Engine) Proc(v int) Proc {
	if e.procs == nil {
		return nil
	}
	return e.procs[v]
}

// Env returns the environment of vertex v (engine-owned; do not mutate).
func (e *Engine) Env(v int) *Env { return &e.envs[v] }

// Metrics returns the measurements accumulated so far.
func (e *Engine) Metrics() Metrics { return e.metrics }

// ensureState builds (or rebuilds) the worker ranges and scratch used by
// Run. Serial mode uses ws[0] only.
func (e *Engine) ensureState() {
	if e.ws != nil {
		return
	}
	n := e.n
	w := e.Parallelism()
	if w > n && n > 0 {
		w = n
	}
	e.ranges = e.ranges[:0]
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		e.ranges = append(e.ranges, [2]int{lo, hi})
	}
	e.ensureVT()
	e.ws = make([]*workerState, w)
	for i := range e.ws {
		e.ws[i] = &workerState{}
	}
	if w > 1 {
		e.shardOf = make([]int32, n)
		for i, r := range e.ranges {
			for v := r[0]; v < r[1]; v++ {
				e.shardOf[v] = int32(i)
			}
		}
		for _, ws := range e.ws {
			ws.vtb = make([][]routed, w*e.window)
		}
	}
	// Sparse delivery needs at least one marked proc to pay for itself;
	// rebuilding the overlay from the ring here means messages in flight
	// across a reconfiguration (parallelism or capacity change) are
	// re-discovered, never stranded. Parallel engines keep the overlay
	// race-free by ownership: the serial lanes append single-threaded,
	// the parallel lanes fold occupancy in during the merge phase, where
	// each worker owns exactly its destination shard's overlay region.
	e.sparse = e.HasTickDriven()
	if e.sparse {
		e.ensureOccupancy()
	}
	e.applyOutboxReserve()
}

// ensureVT builds (or re-sizes after growth) the delivery state: the
// ring — window per-vertex inbox arrays — and, for models
// that draw, the per-sender stream tables (streams themselves derive
// lazily on first draw).
func (e *Engine) ensureVT() {
	w := 2
	if e.delay != nil {
		if d := e.delay.MaxDelay(); d >= 1 {
			w = d + 1
		}
	}
	e.window = w
	if len(e.ring) != w {
		e.ring = make([][][]Incoming, w)
	}
	for s := range e.ring {
		if e.ring[s] == nil {
			e.ring[s] = make([][]Incoming, e.n)
		}
		for len(e.ring[s]) < e.n {
			e.ring[s] = append(e.ring[s], nil)
		}
	}
	if e.delay != nil && e.delay.Draws() && len(e.delayRng) < e.n {
		grown := make([]*xrand.Rand, e.n)
		copy(grown, e.delayRng)
		e.delayRng = grown
	}
	if e.fault != nil && e.fault.Draws() && len(e.faultRng) < e.n {
		grown := make([]*xrand.Rand, e.n)
		copy(grown, e.faultRng)
		e.faultRng = grown
	}
}

// delayStream returns sender v's private latency stream, deriving it on
// first use (a pure function of the engine seed and v, so when it is
// derived changes nothing). Returns nil when the model never draws.
// Race-free in parallel rounds: v's entry is only touched by the worker
// owning v.
func (e *Engine) delayStream(v int) *xrand.Rand {
	if e.delayRng == nil {
		return nil
	}
	s := e.delayRng[v]
	if s == nil {
		s = e.root.SplitN("delay", v)
		e.delayRng[v] = s
	}
	return s
}

// faultStream is delayStream's fault-model counterpart.
func (e *Engine) faultStream(v int) *xrand.Rand {
	if e.faultRng == nil {
		return nil
	}
	s := e.faultRng[v]
	if s == nil {
		s = e.root.SplitN("fault", v)
		e.faultRng[v] = s
	}
	return s
}

// flushRound folds every worker's per-round accumulators into Metrics
// and returns this round's message count. All accumulators are integer
// sums or maxes over disjoint message sets, so totals are exact and
// independent of worker scheduling.
func (e *Engine) flushRound() int64 {
	var roundMsgs int64
	for _, ws := range e.ws {
		roundMsgs += ws.messages
		e.metrics.Messages += ws.messages
		e.metrics.Bits += ws.bits
		e.metrics.Violations += ws.violations
		e.metrics.Capped += ws.capped
		e.metrics.Dropped += ws.dropped
		e.metrics.DelayClamped += ws.delayClamped
		if ws.maxMsgBits > e.metrics.MaxMsgBits {
			e.metrics.MaxMsgBits = ws.maxMsgBits
		}
		ws.messages, ws.bits, ws.violations, ws.capped, ws.dropped, ws.delayClamped, ws.maxMsgBits = 0, 0, 0, 0, 0, 0, 0
	}
	return roundMsgs
}

// startPool parks len(ranges) workers on their wake channels. Wake
// channels are engine-owned and reused across Runs (recreated only when
// the worker count changes), so restarting the pool costs one goroutine
// spawn per worker and nothing per round.
func (e *Engine) startPool() {
	if e.pool {
		return
	}
	w := len(e.ranges)
	if len(e.wake) != w {
		e.wake = make([]chan poolPhase, w)
		for i := range e.wake {
			e.wake[i] = make(chan poolPhase, 1)
		}
	}
	for i := 0; i < w; i++ {
		go e.poolWorker(i)
	}
	e.pool = true
}

// stopPool unwinds all pool workers and waits until they are gone.
func (e *Engine) stopPool() {
	if !e.pool {
		return
	}
	e.dispatch(phaseExit)
	e.pool = false
}

// dispatch publishes one phase to every worker and blocks until all have
// completed it. The channel send publishes e.round and everything the
// main goroutine wrote before the send; poolWG.Done/Wait publishes the
// workers' writes back. Nothing in here allocates.
func (e *Engine) dispatch(ph poolPhase) {
	e.poolWG.Add(len(e.wake))
	for _, ch := range e.wake {
		ch <- ph
	}
	e.poolWG.Wait()
}

// poolWorker is the body of pool worker i: it owns vertex range i during
// step phases and destination shard i during merge phases.
func (e *Engine) poolWorker(i int) {
	for ph := range e.wake[i] {
		switch ph {
		case phaseExit:
			e.poolWG.Done()
			return
		case phaseStepVT:
			ws := e.ws[i]
			box := e.ring[e.tick%e.window]
			for v := e.ranges[i][0]; v < e.ranges[i][1]; v++ {
				e.stepVertexVT(v, e.round, ws, box)
			}
		case phaseMergeVT:
			e.mergeShardVT(i)
		case phaseStepVTSparse:
			e.stepShardSparseVT(i)
		case phaseMergeVTSparse:
			e.mergeShardVTSparse(i)
		}
		e.poolWG.Done()
	}
}

// mergeShardVT drains every worker's buckets for destination shard s
// into the delivery ring — for each delay d, into ring slot
// (tick+d) mod window, in worker order, which is ascending sender
// order. Because buckets are merged EVERY round rather than held until
// their delivery tick, each ring row accumulates its messages
// round-major, sender-major: exactly the order roundSerialVT appends
// them, so parallel delivery is byte-identical to serial.
func (e *Engine) mergeShardVT(s int) {
	window := e.window
	for d := 1; d < window; d++ {
		box := e.ring[(e.tick+d)%window]
		idx := s*window + d
		for i := range e.ranges {
			bucket := e.ws[i].vtb[idx]
			for _, m := range bucket {
				box[m.to] = append(box[m.to], Incoming{
					From:    int(m.from),
					FromID:  e.ids[m.from],
					Payload: m.payload,
				})
			}
			e.ws[i].vtb[idx] = bucket[:0]
		}
	}
}

// roundParallelVT executes one round with the sharded worker pool:
//
//  1. Step phase — each worker steps a contiguous vertex range and
//     admits its output into per-(worker, destination-shard, delay)
//     buckets. Admission (neighbor check, edge-capacity budget, fault
//     verdict, latency draw) is sender-local, so each decision is
//     identical to the serial engine's.
//  2. Merge phase — each worker owns a contiguous destination shard and
//     drains the buckets into the ring in ascending sender order (see
//     mergeShardVT), so every inbox receives its messages in exactly the
//     serial delivery order.
//
// Metrics are shard-local sums/maxes flushed after the round. The net
// effect is byte-for-byte equivalence with roundSerialVT, at zero heap
// allocations per steady-state round (see the pool fields).
func (e *Engine) roundParallelVT(r int) bool {
	e.round = r
	e.tick = e.metrics.Rounds
	e.vtr = e.resolveVT(e.tick)
	for _, ws := range e.ws {
		ws.allHalted = true
	}
	if e.sparse {
		// The sparse lane: each worker walks the union of its shard's
		// always-step vertices and occupied rows (stepShardSparseVT),
		// then folds occupancy into its destination shard's overlay
		// while merging (mergeShardVTSparse). The halt verdict mirrors
		// roundSparseVT's: per-worker liveAlways/tdHalts counters are
		// summed here, after the merge barrier published them, and the
		// verdict reads the live TickDriven count from before the round.
		tdLiveBefore := e.tdLive
		for _, ws := range e.ws {
			ws.liveAlways = 0
			ws.tdHalts = 0
		}
		e.dispatch(phaseStepVTSparse)
		e.dispatch(phaseMergeVTSparse)
		liveAlways := 0
		for _, ws := range e.ws {
			liveAlways += ws.liveAlways
			e.tdLive -= ws.tdHalts
		}
		return liveAlways == 0 && tdLiveBefore == 0
	}
	e.dispatch(phaseStepVT)
	e.dispatch(phaseMergeVT)
	allHalted := true
	for _, ws := range e.ws {
		allHalted = allHalted && ws.allHalted
	}
	return allHalted
}

// Run executes up to maxRounds rounds and returns the number of rounds
// executed. The run ends early when every process has halted or the stop
// condition fires. Attach must have been called.
func (e *Engine) Run(maxRounds int) (int, error) {
	if e.procs == nil {
		return 0, errors.New("sim: Run called before Attach")
	}
	if maxRounds < 0 {
		return 0, errors.New("sim: negative maxRounds")
	}
	// Growth between Run calls (AttachAt beyond capacity outside a hook,
	// or a hook that errored right after growing) leaves worker state
	// sized to the old capacity; rebuild before executing anything.
	if e.regrow {
		e.regrow = false
		e.ws = nil
	}
	e.ensureState()
	if e.sparse {
		e.recountTickDriven()
	}
	// Reserve the traffic series up front (rounded to a power of two,
	// bounded so a huge maxRounds with an early stop condition cannot
	// balloon memory) so appending inside the round loop never grows it
	// — the last per-round allocation the engine would otherwise make.
	const reserveCap = 1 << 16
	reserve := maxRounds
	if reserve > reserveCap {
		reserve = reserveCap
	}
	if need := len(e.metrics.MessagesByRound) + reserve; cap(e.metrics.MessagesByRound) < need {
		size := 1
		for size < need {
			size <<= 1
		}
		grown := make([]int64, len(e.metrics.MessagesByRound), size)
		copy(grown, e.metrics.MessagesByRound)
		e.metrics.MessagesByRound = grown
	}
	parallel := len(e.ranges) > 1
	if parallel {
		e.startPool()
	}
	defer e.stopPool()
	for r := 0; r < maxRounds; r++ {
		if e.cancel != nil {
			select {
			case <-e.cancel:
				return r, ErrCanceled
			default:
			}
		}
		if e.topo != nil {
			e.curEpoch = e.topo.Epoch()
		}
		// Fast-forward: an empty slot (an O(shards) occCnt reduction)
		// plus an all-TickDriven live population means executing this
		// tick would step nothing and deliver nothing — jump the virtual
		// clock instead, serial and parallel alike (a skipped parallel
		// tick bypasses the pool entirely; no phase is dispatched). A
		// between-rounds hook pins the dense cadence (it observes every
		// boundary), and the skipped tick's bookkeeping matches an
		// executed empty tick exactly, so transcripts and metrics (minus
		// TicksSkipped) are identical with skipping on or off.
		if e.sparse && e.skip && e.betweenRounds == nil &&
			e.occSlotEmpty(e.metrics.Rounds%e.window) && e.vtCanSkip() {
			e.metrics.Rounds++
			e.metrics.TicksSkipped++
			e.metrics.MessagesByRound = append(e.metrics.MessagesByRound, 0)
			if e.stop != nil && e.stop(r) {
				return r + 1, nil
			}
			continue
		}
		var allHalted bool
		if parallel {
			allHalted = e.roundParallelVT(r)
		} else {
			allHalted = e.roundSerialVT(r)
		}
		// The ring advances by tick index: the next tick's slot already
		// holds its pending messages.
		roundMsgs := e.flushRound()
		e.metrics.Rounds++
		e.metrics.MessagesByRound = append(e.metrics.MessagesByRound, roundMsgs)
		if e.betweenRounds != nil {
			e.hookAttached = false
			if err := e.betweenRounds(r); err != nil {
				return r + 1, err
			}
			// Freshly attached processes are owed a first Step; the round's
			// all-halted verdict predates them.
			if e.hookAttached {
				allHalted = false
			}
			if e.regrow {
				// The slot arrays grew: ranges, the shard map, and worker
				// scratch are sized to the old capacity. Rebuild them (and
				// the pool, whose workers cache range bounds) before the
				// next round.
				e.regrow = false
				e.stopPool()
				e.ws = nil
				e.ensureState()
				parallel = len(e.ranges) > 1
				if parallel {
					e.startPool()
				}
			}
		}
		if allHalted {
			return r, nil
		}
		if e.stop != nil && e.stop(r) {
			return r + 1, nil
		}
	}
	return maxRounds, nil
}
