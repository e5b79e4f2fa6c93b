package core

import (
	"freshcache/internal/bitset"
	"freshcache/internal/centrality"
	"freshcache/internal/eventsim"
)

// Reuse bundles the worker-local run state an Engine can recycle across
// consecutive runs instead of reallocating: the simulator (its list of
// timeline cursors), the contact-rate estimator's pair list and log, the
// bitset arena behind duty destination/relay sets, the duty and
// relay-entry slabs, pointer-row pools, and the pre-planned measurement
// timeline. A sweep worker creates one Reuse and passes it to every cell
// it runs; NewEngine resets it before wiring it in.
//
// A Reuse must never be shared by two live engines: handing it to a new
// Engine invalidates all state of the previous run, so callers must be
// completely done with the prior engine (including metric extraction)
// first. It is not safe for concurrent use.
type Reuse struct {
	s runScratch
}

// NewReuse returns an empty reusable state bundle.
func NewReuse() *Reuse {
	return &Reuse{s: runScratch{sim: eventsim.New()}}
}

// acquire resets and returns the bundled scratch. A nil Reuse yields a
// fresh transient scratch, so the engine has one allocation path either
// way.
func (r *Reuse) acquire() *runScratch {
	if r == nil {
		return newRunScratch()
	}
	r.s.reset()
	return &r.s
}

// runScratch is the per-run allocation surface shared by the engine and
// the schemes. Every engine owns one — transient when Config.Reuse is
// nil, recycled otherwise — so scheme code has a single allocation path.
type runScratch struct {
	sim *eventsim.Simulator
	// est is the run's converged rate estimator; Engine.Run resets it,
	// keeping the pair list, log and sort buffers a previous run grew.
	est          centrality.Estimator
	bits         bitset.Arena
	duties       slab[duty]
	relayEntries slab[relayEntry]
	setRows      rowPool[*bitset.Set]
	dutyRows     rowPool[*duty]

	// plan is the measurement-phase static schedule (generations,
	// freshness samples, timeline ticks, query issues) in dispatch order,
	// and planRuns the end offsets of the time-ordered runs it was
	// compiled from; planEvents is its eventsim projection and planSpare
	// the merge's other buffer.
	plan       []planAction
	planRuns   []int
	planEvents []eventsim.StaticEvent
	planSpare  []eventsim.StaticEvent
}

func newRunScratch() *runScratch {
	return &runScratch{sim: eventsim.New()}
}

func (s *runScratch) reset() {
	s.sim.Reset()
	s.bits.Reset()
	s.duties.reset()
	s.relayEntries.reset()
	s.setRows.reset()
	s.dutyRows.reset()
	s.plan = s.plan[:0]
	s.planRuns = s.planRuns[:0]
	s.planEvents = s.planEvents[:0]
	s.planSpare = s.planSpare[:0]
}

// slab hands out zeroed *T from block allocations, rewound wholesale by
// reset. Pointers stay valid until the next reset.
type slab[T any] struct {
	blocks     [][]T
	block, off int
}

const slabBlockLen = 128

func (s *slab[T]) get() *T {
	if s.block >= len(s.blocks) {
		s.blocks = append(s.blocks, make([]T, slabBlockLen))
	}
	p := &s.blocks[s.block][s.off]
	var zero T
	*p = zero
	s.off++
	if s.off == len(s.blocks[s.block]) {
		s.block++
		s.off = 0
	}
	return p
}

func (s *slab[T]) reset() { s.block, s.off = 0, 0 }

// rowPool recycles fixed-width slices (per-node pointer rows), carved
// from blocks of about rowBlockLen elements. Rows are zeroed on hand-out;
// a width change (different scenario dimensions on the same worker) drops
// the pool.
type rowPool[T any] struct {
	rows  [][]T
	next  int
	width int
}

const rowBlockLen = 4096

func (p *rowPool[T]) row(width int) []T {
	if width != p.width {
		p.rows = p.rows[:0]
		p.next = 0
		p.width = width
	}
	if p.next == len(p.rows) {
		n := max(rowBlockLen/max(width, 1), 1)
		block := make([]T, n*width)
		for i := 0; i < n; i++ {
			p.rows = append(p.rows, block[i*width:(i+1)*width:(i+1)*width])
		}
	}
	r := p.rows[p.next]
	p.next++
	clear(r)
	return r
}

func (p *rowPool[T]) reset() { p.next = 0 }

// planAction is one pre-planned measurement-phase event. The engine
// compiles the full list beside the warm-up as runs each in time order,
// merges their StaticEvent projection (equal times keep run order), puts
// the entries in the merged order and attaches the projection to the
// simulator as one static timeline. It holds no pointer, so a recycled
// plan's stale entries keep nothing of a finished run alive, and no index
// into the query log: the dispatch writes each query's record into the
// log's next slot.
type planAction struct {
	time float64
	op   uint8
	item int32 // item ID, which is its catalog index (opGenerate, opQuery)
	ver  int32 // version (opGenerate)
	node int32 // requester (opQuery)
}

const (
	opGenerate = uint8(iota)
	opSample
	opTimeline
	opQuery
)

// Scheme-facing scratch helpers.

// newSet returns an empty run-scoped bit set over [0, rt.N).
func (rt *Runtime) newSet() *bitset.Set { return rt.eng.scratch.bits.New(rt.N) }

// newDuty returns a zeroed run-scoped duty.
func (rt *Runtime) newDuty() *duty { return rt.eng.scratch.duties.get() }

// newRelayEntry returns a zeroed run-scoped relay buffer entry.
func (rt *Runtime) newRelayEntry() *relayEntry { return rt.eng.scratch.relayEntries.get() }

// setRow returns a zeroed length-rt.N row of set pointers.
func (rt *Runtime) setRow() []*bitset.Set { return rt.eng.scratch.setRows.row(rt.N) }

// dutyRow returns a zeroed length-items row of duty pointers.
func (rt *Runtime) dutyRow(items int) []*duty { return rt.eng.scratch.dutyRows.row(items) }
