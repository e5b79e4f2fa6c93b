package core

import (
	"fmt"
	"math/rand"

	"freshcache/internal/bitset"
	"freshcache/internal/cache"
	"freshcache/internal/centrality"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// copyKey identifies one version of one item.
type copyKey struct {
	item    cache.ItemID
	version int
}

// keyLess orders copy keys by (item, version) — the deterministic
// delivery and eviction order of the relay buffers.
func keyLess(a, b copyKey) bool {
	if a.item != b.item {
		return a.item < b.item
	}
	return a.version < b.version
}

// duty is the refresh responsibility a node holds for one item version:
// the set of caching nodes it must still refresh, and the relay plans
// backing each of them. Node sets are bitsets over the dense 0..N-1 ID
// space, so per-contact membership tests and updates are word operations
// with no hashing and deterministic ascending iteration.
type duty struct {
	key    copyKey
	genAt  float64
	window float64
	// ttl is how long copies of this version stay worth delivering (the
	// item lifetime); relay copies expire at genAt+ttl.
	ttl float64
	// dests are the children not yet known to be refreshed.
	dests *bitset.Set
	// relayFor[relay] is the destination set that relay serves (nil when
	// the relay is unused; the whole slice is nil when replication is off
	// or planned no relays for this duty).
	relayFor []*bitset.Set
	// span is the duty's lineage span (0 when lineage is off): the parent
	// of every delivery and relay handoff made under this duty.
	span obs.SpanID
}

// relayEntry is a copy parked at a relay node on behalf of responsible
// nodes, tagged with the destinations it should be delivered to.
type relayEntry struct {
	key    copyKey
	genAt  float64
	expire float64
	dests  *bitset.Set
	// span is the handoff's lineage span (0 when lineage is off): the
	// parent of deliveries the relay makes from this copy.
	span obs.SpanID
}

// planKey memoizes one PlanReplication call: the plan depends only on
// the rates snapshot (captured by the cache's epoch), the endpoints and
// the time budget — PReq, the relay bound and the candidate set are
// run-constant.
type planKey struct {
	holder trace.NodeID
	dest   trace.NodeID
	budget float64
}

// maxPlanCacheEntries bounds the plan memo; when an adversarial workload
// produces unbounded distinct budgets the memo is flushed rather than
// grown forever. Flushing never changes results — only recompute cost.
const maxPlanCacheEntries = 1 << 14

// refreshScheme is the unified refresh protocol behind four of the
// evaluated schemes. Its two switches correspond exactly to the paper's
// two ideas:
//
//   - hierarchical=false: only the source refreshes caching nodes (a star
//     "hierarchy") — the Direct baselines.
//   - hierarchical=true: the refresh tree of BuildTree distributes
//     responsibility — each caching node refreshes its children.
//   - replicate: probabilistic replication through relay nodes per
//     PlanReplication; off = direct parent→child contacts only.
//   - onlyFirstVersion: the NoRefresh floor — version 0 propagates (initial
//     cache fill), later versions are never pushed.
type refreshScheme struct {
	name             string
	hierarchical     bool
	replicate        bool
	onlyFirstVersion bool
	// randomRelays replaces the analysis-driven relay selection with a
	// uniformly random relay set of the same maximum size — the ablation
	// showing that *which* relays carry copies matters, not just how many.
	randomRelays bool
	// opportunistic enables the distributed-maintenance side channels of
	// the hierarchical variants: two caching nodes that meet refresh each
	// other's stale copies, and a relay hands its copy to ANY caching node
	// that lacks the version (bookkeeping still tracks the planned
	// destinations). The Direct baselines stay source-only by definition.
	opportunistic bool

	rng *rand.Rand // non-nil iff randomRelays

	rt *Runtime
	// items is the shared immutable catalog view (ID order); n the node
	// count. Both back the dense per-node state below.
	items []cache.Item
	n     int
	// trees[item] is the item's refresh tree (item IDs are dense).
	trees []*Tree
	// duties[node][item] is the node's current (newest-version) duty, nil
	// when none; rows are allocated lazily. dutyCount[node] lets the
	// per-contact path skip duty-less endpoints with a single load.
	duties    [][]*duty
	dutyCount []int
	// relays[node] are copies parked at the node for delivery, kept
	// sorted by (item, version) — the order actAsRelay previously
	// re-derived with a per-contact sort.
	relays [][]*relayEntry
	// scratch is reused by the relay hand-off path for the live
	// destination intersection, keeping OnContact allocation-free.
	scratch *bitset.Set

	// Plan memoization: under an epoch-tagged (immutable) rates view,
	// PlanReplication is pure in planKey, so plans are computed once per
	// rates epoch — i.e. once per hierarchy (re)build — instead of once
	// per generation. Views without an epoch (distributed knowledge
	// change continuously) bypass the memo.
	planCache map[planKey]RelayPlan
	planEpoch uint64
	planValid bool
	planBufs  planBuffers

	// Planner statistics for analysis validation (E7).
	plansTotal     int
	plansSatisfied int
	sumAchieved    float64
	planErr        error
}

var (
	_ Scheme        = (*refreshScheme)(nil)
	_ StatsReporter = (*refreshScheme)(nil)
)

// NewDirect returns the source-only refreshing baseline: caching nodes are
// refreshed exclusively on direct contact with the data source.
func NewDirect() Scheme {
	return &refreshScheme{name: "direct"}
}

// NewDirectReplicated returns the ablation with probabilistic replication
// but no hierarchy: the source remains responsible for every caching node
// and hands copies to relays per the replication analysis.
func NewDirectReplicated() Scheme {
	return &refreshScheme{name: "direct-rep", replicate: true}
}

// NewHierarchical returns the paper's scheme: distributed hierarchical
// refreshing with probabilistic replication.
func NewHierarchical() Scheme {
	return &refreshScheme{name: "hierarchical", hierarchical: true, replicate: true, opportunistic: true}
}

// NewHierarchicalNoRep returns the ablation with the refresh hierarchy but
// without relay replication (direct parent→child contacts only).
func NewHierarchicalNoRep() Scheme {
	return &refreshScheme{name: "hierarchical-norep", hierarchical: true, opportunistic: true}
}

// NewNoRefresh returns the floor baseline: caches fill once with version 0
// and are never refreshed.
func NewNoRefresh() Scheme {
	return &refreshScheme{name: "norefresh", onlyFirstVersion: true}
}

// NewRandomReplicated returns the relay-selection ablation: hierarchy and
// replication exactly as the paper's scheme, but relays are chosen
// uniformly at random instead of by the delivery-probability analysis.
func NewRandomReplicated() Scheme {
	return &refreshScheme{name: "random-rep", hierarchical: true, replicate: true, randomRelays: true, opportunistic: true}
}

// NewHierarchicalBare returns the hierarchy with no replication and no
// opportunistic side channels: deliveries happen strictly along tree
// edges. Not part of the evaluated panel; it exists so the analytical
// tree forecast (AnalyzeTree) can be validated against a protocol whose
// behavior the analysis exactly models.
func NewHierarchicalBare() Scheme {
	return &refreshScheme{name: "hierarchical-bare", hierarchical: true}
}

// Name implements Scheme.
func (s *refreshScheme) Name() string { return s.name }

// Init implements Scheme: it builds the refresh tree for every item (a
// star rooted at the source for the non-hierarchical variants) and sizes
// the dense per-node state.
func (s *refreshScheme) Init(rt *Runtime) error {
	s.rt = rt
	s.items = rt.Items()
	s.n = rt.N
	s.trees = make([]*Tree, len(s.items))
	s.duties = make([][]*duty, s.n)
	s.dutyCount = make([]int, s.n)
	s.relays = make([][]*relayEntry, s.n)
	s.scratch = rt.newSet()
	s.planCache = nil
	s.planValid = false
	if s.randomRelays {
		s.rng = stats.Derive(rt.Seed, "core/random-relays")
	}

	for _, it := range s.items {
		var t *Tree
		var err error
		if s.hierarchical {
			// The source builds the tree for its item from its own
			// knowledge (the oracle matrix, or its local view under
			// distributed knowledge).
			t, err = BuildTree(rt.RatesFor(it.Source), it.Source, rt.CachingNodes, rt.MaxFanout)
		} else {
			t, err = starTree(it.Source, rt.CachingNodes)
		}
		if err != nil {
			return fmt.Errorf("core: tree for item %d: %w", it.ID, err)
		}
		s.trees[it.ID] = t
	}
	return nil
}

// Rebuild implements Rebuilder: it reconstructs the refresh trees from
// the runtime's current rate knowledge. Outstanding duties and relay
// copies are kept — copies in flight stay useful — but responsibility for
// future versions follows the new trees. The plan memo self-invalidates:
// the swapped-in rate matrix carries a fresh epoch.
func (s *refreshScheme) Rebuild(rt *Runtime) error {
	s.rt = rt
	for _, it := range s.items {
		if !s.hierarchical {
			continue // star trees have no rates to adapt to
		}
		t, err := BuildTree(rt.RatesFor(it.Source), it.Source, rt.CachingNodes, rt.MaxFanout)
		if err != nil {
			return fmt.Errorf("core: rebuild tree for item %d: %w", it.ID, err)
		}
		s.trees[it.ID] = t
	}
	return nil
}

var _ Rebuilder = (*refreshScheme)(nil)

// starTree builds the degenerate one-level hierarchy: every caching node
// is a direct child of the source.
func starTree(source trace.NodeID, cachingNodes []trace.NodeID) (*Tree, error) {
	t := &Tree{
		Source:        source,
		Parent:        make(map[trace.NodeID]trace.NodeID, len(cachingNodes)),
		Children:      map[trace.NodeID][]trace.NodeID{},
		Depth:         map[trace.NodeID]int{source: 0},
		ExpectedDelay: map[trace.NodeID]float64{source: 0},
	}
	for _, c := range cachingNodes {
		if c == source {
			return nil, fmt.Errorf("core: source %d in caching set", source)
		}
		t.Parent[c] = source
		t.Children[source] = append(t.Children[source], c)
		t.Depth[c] = 1
	}
	return t, nil
}

// OnGenerate implements Scheme: the source becomes responsible for its
// children in the tree.
func (s *refreshScheme) OnGenerate(it cache.Item, version int, now float64) {
	if s.onlyFirstVersion && version > 0 {
		return
	}
	s.assumeDuty(it.Source, it, version, now, now, s.rt.Rec.Root(int32(it.ID), int32(version)))
}

// planMemo returns the memo table valid for the given rates view, or nil
// when the view is not epoch-tagged (mutable knowledge — never cached).
// A view with a new epoch flushes the table: plans computed against
// superseded rates must not survive a hierarchy rebuild.
func (s *refreshScheme) planMemo(rates centrality.RateView) map[planKey]RelayPlan {
	em, ok := rates.(centrality.Epoched)
	if !ok {
		return nil
	}
	if !s.planValid || s.planEpoch != em.Epoch() || len(s.planCache) > maxPlanCacheEntries {
		s.planCache = make(map[planKey]RelayPlan)
		s.planEpoch = em.Epoch()
		s.planValid = true
	}
	return s.planCache
}

// assumeDuty makes `holder` responsible for refreshing its children in the
// item's tree with the given version. genAt is the version's generation
// time; now the moment responsibility starts (later than genAt for caching
// nodes deeper in the tree). parent is the lineage span that caused the
// duty (the generation root at the source, the delivery span elsewhere; 0
// when lineage is off).
func (s *refreshScheme) assumeDuty(holder trace.NodeID, it cache.Item, version int, genAt, now float64, parent obs.SpanID) {
	t := s.trees[it.ID]
	children := t.ResponsibleFor(holder)
	if len(children) == 0 {
		return
	}
	row := s.duties[holder]
	if row != nil {
		if cur := row[it.ID]; cur != nil && cur.key.version >= version {
			return // already responsible for this or a newer version
		}
	}
	d := s.rt.newDuty()
	*d = duty{
		key:    copyKey{item: it.ID, version: version},
		genAt:  genAt,
		window: it.FreshnessWindow,
		ttl:    it.Lifetime,
		dests:  s.rt.newSet(),
	}
	ndests := 0
	for _, c := range children {
		// Skip children that already have this version (delivered by an
		// overtaking relay path).
		if v, ok := s.rt.CachedVersion(c, it.ID); ok && v >= version {
			continue
		}
		d.dests.Add(int(c))
		ndests++
	}
	if ndests == 0 {
		return
	}

	if s.replicate {
		budget := d.genAt + d.window - now
		if budget > 0 {
			rates := s.rt.RatesFor(holder)
			memo := s.planMemo(rates)
			for dest := d.dests.Next(0); dest >= 0; dest = d.dests.Next(dest + 1) {
				var plan RelayPlan
				if s.randomRelays {
					plan = s.randomPlan(rates, holder, trace.NodeID(dest), budget)
				} else {
					key := planKey{holder: holder, dest: trace.NodeID(dest), budget: budget}
					var hit bool
					if memo != nil {
						plan, hit = memo[key]
					}
					if !hit {
						var err error
						plan, err = planReplication(rates, holder, trace.NodeID(dest), s.rt.AllNodes(), budget, s.rt.PReq, s.rt.MaxRelays, &s.planBufs)
						if err != nil {
							if s.planErr == nil {
								s.planErr = err
							}
							continue
						}
						if memo != nil {
							memo[key] = plan
						}
					}
				}
				s.plansTotal++
				if plan.Satisfied {
					s.plansSatisfied++
				}
				s.sumAchieved += plan.AchievedProb
				s.rt.Rec.Planned(now, int32(holder), int32(dest), int32(it.ID), int32(version), plan.AchievedProb)
				if len(plan.Relays) > 0 {
					if d.relayFor == nil {
						d.relayFor = s.rt.setRow()
					}
					for _, r := range plan.Relays {
						rf := d.relayFor[r]
						if rf == nil {
							rf = s.rt.newSet()
							d.relayFor[r] = rf
						}
						rf.Add(dest)
					}
				}
			}
		}
	}

	if row == nil {
		row = s.rt.dutyRow(len(s.items))
		s.duties[holder] = row
	}
	if row[it.ID] == nil {
		s.dutyCount[holder]++
	}
	row[it.ID] = d // replaces any older-version duty
	d.span = s.rt.Rec.Duty(now, parent, int32(holder), int32(it.ID), int32(version), ndests)
}

// randomPlan draws MaxRelays distinct random relays (excluding holder and
// destination) and reports the honest analytical probability of that set,
// so E7-style comparisons stay meaningful.
func (s *refreshScheme) randomPlan(rates centrality.RateView, holder, dest trace.NodeID, budget float64) RelayPlan {
	plan := RelayPlan{Dest: dest}
	plan.DirectProb = DirectProb(rates.Rate(holder, dest), budget)
	miss := 1 - plan.DirectProb
	perm := s.rng.Perm(s.rt.N)
	for _, idx := range perm {
		if s.rt.MaxRelays > 0 && len(plan.Relays) >= s.rt.MaxRelays {
			break
		}
		r := trace.NodeID(idx)
		if r == holder || r == dest {
			continue
		}
		plan.Relays = append(plan.Relays, r)
		miss *= 1 - TwoHopProb(rates.Rate(holder, r), rates.Rate(r, dest), budget)
	}
	plan.AchievedProb = 1 - miss
	plan.Satisfied = plan.AchievedProb >= s.rt.PReq
	return plan
}

// OnContact implements Scheme.
func (s *refreshScheme) OnContact(c *network.Contact) {
	// Lazy relay-buffer expiry for both endpoints.
	s.expireRelays(c.A, c.Time)
	s.expireRelays(c.B, c.Time)

	// Both roles in both directions: responsible-node actions, then
	// relay deliveries, then opportunistic peer sync.
	s.actAsResponsible(c, c.A, c.B)
	s.actAsResponsible(c, c.B, c.A)
	s.actAsRelay(c, c.A, c.B)
	s.actAsRelay(c, c.B, c.A)
	if s.opportunistic {
		s.syncPeers(c, c.A, c.B)
		s.syncPeers(c, c.B, c.A)
	}
}

// syncPeers lets a caching node refresh a stale caching peer it happens to
// meet, regardless of tree edges — part of maintaining freshness "in a
// distributed manner": every caching node helps the peers it actually
// sees.
func (s *refreshScheme) syncPeers(c *network.Contact, from, to trace.NodeID) {
	if !s.rt.IsCachingNode(from) || !s.rt.IsCachingNode(to) {
		return
	}
	for i := range s.items {
		it := s.items[i]
		cp, ok := s.rt.CachedCopy(from, it.ID)
		if !ok || cp.Expired(it, c.Time) {
			continue
		}
		if v, ok := s.rt.CachedVersion(to, it.ID); ok && v >= cp.Version {
			continue
		}
		if !c.Send(from, to, "refresh") {
			return
		}
		cp.ReceivedAt = c.Time
		// Parent on the span the giver's copy arrived under; a copy whose
		// delivery span was dropped at the lineage cap falls back to the
		// generation root.
		parent := s.rt.CopySpan(from, it.ID)
		if parent == 0 {
			parent = s.rt.Rec.Root(int32(it.ID), int32(cp.Version))
		}
		if sp, ok := s.rt.DeliverToCache(from, to, cp, c.Time, parent); ok {
			s.assumeDuty(to, it, cp.Version, cp.GeneratedAt, c.Time, sp)
		}
	}
}

// actAsResponsible runs holder's duties against peer: direct delivery when
// peer is a pending destination, relay hand-off when peer is a planned
// relay. Items are walked in ID order, which is the deterministic order
// the old map-based state had to re-derive from the catalog.
func (s *refreshScheme) actAsResponsible(c *network.Contact, holder, peer trace.NodeID) {
	if s.dutyCount[holder] == 0 {
		return
	}
	row := s.duties[holder]
	p := int(peer)
	for i := range s.items {
		d := row[i]
		if d == nil {
			continue
		}
		it := s.items[i]
		itemID := it.ID
		// A version past its lifetime is worthless; drop the duty.
		if c.Time > d.genAt+d.ttl {
			row[i] = nil
			s.dutyCount[holder]--
			continue
		}
		// Destination already refreshed by someone else? Clear silently.
		if d.dests.Contains(p) {
			if v, ok := s.rt.CachedVersion(peer, itemID); ok && v >= d.key.version {
				d.dests.Remove(p)
			}
		}
		if d.dests.Contains(p) {
			if !c.Send(holder, peer, "refresh") {
				return // contact budget exhausted; try next contact
			}
			cp := cache.Copy{Item: itemID, Version: d.key.version, GeneratedAt: d.genAt, ReceivedAt: c.Time}
			if sp, ok := s.rt.DeliverToCache(holder, peer, cp, c.Time, d.span); ok {
				s.assumeDuty(peer, it, d.key.version, d.genAt, c.Time, sp)
			}
			d.dests.Remove(p)
		} else if d.relayFor != nil && d.relayFor[peer] != nil {
			// Hand the copy to the relay for its still-pending dests.
			rf := d.relayFor[peer]
			if rf.IntersectInto(d.dests, s.scratch) == 0 {
				d.relayFor[peer] = nil
				continue
			}
			if s.giveToRelay(c, holder, peer, d, s.scratch) {
				d.relayFor[peer] = nil // handed off once; relay owns it now
			}
		}
		if d.dests.Empty() {
			row[i] = nil
			s.dutyCount[holder]--
		}
	}
}

// giveToRelay parks a copy at the relay. The physical copy transfer costs
// one "relay" transmission the first time; adding destinations to a copy
// the relay already holds is metadata and free.
func (s *refreshScheme) giveToRelay(c *network.Contact, holder, relay trace.NodeID, d *duty, live *bitset.Set) bool {
	buf := s.relays[relay]
	for _, entry := range buf {
		if entry.key == d.key {
			entry.dests.Or(live)
			return true
		}
	}
	if !c.Send(holder, relay, "relay") {
		return false
	}
	if cap := s.rt.RelayBufferCap; cap > 0 && len(buf) >= cap {
		buf = evictRelayEntry(buf)
	}
	entry := s.rt.newRelayEntry()
	*entry = relayEntry{
		key:   d.key,
		genAt: d.genAt,
		// Copies stay deliverable while the data is still valid, not
		// just while the on-time window is open: a late refresh beats
		// no refresh.
		expire: d.genAt + d.ttl,
		dests:  s.rt.newSet(),
		span:   s.rt.Rec.Handoff(c.Time, d.span, int32(holder), int32(relay), int32(d.key.item), int32(d.key.version)),
	}
	entry.dests.Or(live)
	s.relays[relay] = insertRelayEntry(buf, entry)
	return true
}

// insertRelayEntry inserts the entry keeping the buffer sorted by (item,
// version).
func insertRelayEntry(buf []*relayEntry, e *relayEntry) []*relayEntry {
	pos := len(buf)
	for i, x := range buf {
		if keyLess(e.key, x.key) {
			pos = i
			break
		}
	}
	buf = append(buf, nil)
	copy(buf[pos+1:], buf[pos:])
	buf[pos] = e
	return buf
}

// actAsRelay delivers copies parked at `relay` that are destined for peer.
// The buffer is kept key-sorted, so the walk is already in the
// deterministic (item, version) order.
func (s *refreshScheme) actAsRelay(c *network.Contact, relay, peer trace.NodeID) {
	buf := s.relays[relay]
	if len(buf) == 0 {
		return
	}
	p := int(peer)
	for _, entry := range buf {
		planned := entry.dests.Contains(p)
		if !planned && !(s.opportunistic && s.rt.IsCachingNode(peer)) {
			continue
		}
		entry.dests.Remove(p)
		// Skip if the destination caught up through another path.
		if v, ok := s.rt.CachedVersion(peer, entry.key.item); ok && v >= entry.key.version {
			continue
		}
		if !c.Send(relay, peer, "refresh") {
			if planned {
				entry.dests.Add(p) // budget exhausted; retry next contact
			}
			return
		}
		cp := cache.Copy{Item: entry.key.item, Version: entry.key.version, GeneratedAt: entry.genAt, ReceivedAt: c.Time}
		if sp, ok := s.rt.DeliverToCache(relay, peer, cp, c.Time, entry.span); ok {
			if it, err := s.rt.Catalog.Item(entry.key.item); err == nil {
				s.assumeDuty(peer, it, entry.key.version, entry.genAt, c.Time, sp)
			}
		}
	}
	// Drop entries whose destination set drained, preserving order. Like
	// the pre-dense code, this cleanup runs only when the walk completes
	// (a budget-exhausted return leaves drained entries for later).
	kept := buf[:0]
	for _, entry := range buf {
		if entry.dests.Empty() {
			continue
		}
		kept = append(kept, entry)
	}
	if len(kept) != len(buf) {
		for i := len(kept); i < len(buf); i++ {
			buf[i] = nil
		}
		s.relays[relay] = kept
	}
}

// evictRelayEntry drops the buffered copy closest to expiry (ties broken
// by key for determinism) to make room in a capped relay buffer.
func evictRelayEntry(buf []*relayEntry) []*relayEntry {
	victim := -1
	for i, entry := range buf {
		if victim < 0 || entry.expire < buf[victim].expire ||
			(entry.expire == buf[victim].expire && keyLess(entry.key, buf[victim].key)) {
			victim = i
		}
	}
	if victim < 0 {
		return buf
	}
	copy(buf[victim:], buf[victim+1:])
	buf[len(buf)-1] = nil
	return buf[:len(buf)-1]
}

func (s *refreshScheme) expireRelays(node trace.NodeID, now float64) {
	buf := s.relays[node]
	if len(buf) == 0 {
		return
	}
	kept := buf[:0]
	for _, entry := range buf {
		if now > entry.expire {
			continue
		}
		kept = append(kept, entry)
	}
	if len(kept) != len(buf) {
		for i := len(kept); i < len(buf); i++ {
			buf[i] = nil
		}
		s.relays[node] = kept
	}
}

// SchemeStats implements StatsReporter: the replication planner's
// aggregate analytical probabilities, for validation against measured
// on-time delivery.
func (s *refreshScheme) SchemeStats() map[string]float64 {
	out := map[string]float64{
		"plansTotal":     float64(s.plansTotal),
		"plansSatisfied": float64(s.plansSatisfied),
	}
	if s.plansTotal > 0 {
		out["meanAchievedProb"] = s.sumAchieved / float64(s.plansTotal)
		out["satisfiedRatio"] = float64(s.plansSatisfied) / float64(s.plansTotal)
	}
	if len(s.trees) > 0 {
		depthSum, maxDepth := 0, 0
		for _, t := range s.trees {
			d := t.MaxDepth()
			depthSum += d
			if d > maxDepth {
				maxDepth = d
			}
		}
		out["meanTreeDepth"] = float64(depthSum) / float64(len(s.trees))
		out["maxTreeDepth"] = float64(maxDepth)
	}
	return out
}

// epidemicScheme floods every new version to every node: the freshness
// ceiling and the overhead ceiling.
type epidemicScheme struct {
	rt    *Runtime
	items []cache.Item
	// known[node][item] is the newest copy the node carries (every node
	// relays, not just caching nodes); Version < 0 marks no copy. Rows
	// are allocated on a node's first copy.
	known [][]cache.Copy
	// spans[node][item] mirrors known with the span the node's copy
	// arrived under, allocated only when lineage is on.
	spans [][]obs.SpanID
}

var _ Scheme = (*epidemicScheme)(nil)

// NewEpidemic returns the flooding baseline.
func NewEpidemic() Scheme { return &epidemicScheme{} }

// Name implements Scheme.
func (s *epidemicScheme) Name() string { return "epidemic" }

// Init implements Scheme.
func (s *epidemicScheme) Init(rt *Runtime) error {
	s.rt = rt
	s.items = rt.Items()
	s.known = make([][]cache.Copy, rt.N)
	s.spans = nil
	if rt.Rec.Lineage != nil {
		s.spans = make([][]obs.SpanID, rt.N)
		for i := range s.spans {
			s.spans[i] = make([]obs.SpanID, len(s.items))
		}
	}
	return nil
}

// OnGenerate implements Scheme.
func (s *epidemicScheme) OnGenerate(it cache.Item, version int, now float64) {
	s.setKnown(it.Source, cache.Copy{Item: it.ID, Version: version, GeneratedAt: now, ReceivedAt: now})
	if s.spans != nil {
		// The source's copy descends straight from the generation root.
		s.spans[it.Source][it.ID] = s.rt.Rec.Root(int32(it.ID), int32(version))
	}
}

func (s *epidemicScheme) setKnown(node trace.NodeID, c cache.Copy) {
	row := s.known[node]
	if row == nil {
		row = make([]cache.Copy, len(s.items))
		for i := range row {
			row[i].Version = -1
		}
		s.known[node] = row
	}
	if row[c.Item].Version < c.Version {
		row[c.Item] = c
	}
}

// OnContact implements Scheme: anti-entropy in both directions.
func (s *epidemicScheme) OnContact(c *network.Contact) {
	s.push(c, c.A, c.B)
	s.push(c, c.B, c.A)
}

func (s *epidemicScheme) push(c *network.Contact, from, to trace.NodeID) {
	src := s.known[from]
	if src == nil {
		return
	}
	dst := s.known[to]
	for i := range s.items {
		it := s.items[i]
		cp := src[it.ID]
		if cp.Version < 0 {
			continue
		}
		if dst != nil && dst[it.ID].Version >= cp.Version {
			continue
		}
		kind := "relay"
		if s.rt.IsCachingNode(to) {
			kind = "refresh"
		}
		if !c.Send(from, to, kind) {
			return
		}
		cp.ReceivedAt = c.Time
		s.setKnown(to, cp)
		dst = s.known[to] // row may have just been allocated
		var parent obs.SpanID
		if s.spans != nil {
			parent = s.spans[from][it.ID]
		}
		sp, delivered := obs.SpanID(0), false
		if s.rt.IsCachingNode(to) {
			sp, delivered = s.rt.DeliverToCache(from, to, cp, c.Time, parent)
		}
		if !delivered {
			// A transfer no cache accepts is an epidemic carry.
			sp = s.rt.Rec.Handoff(c.Time, parent, int32(from), int32(to), int32(it.ID), int32(cp.Version))
		}
		if s.spans != nil {
			s.spans[to][it.ID] = sp
		}
	}
}

// Schemes maps CLI names to scheme constructors, in the canonical
// reporting order.
func Schemes() []struct {
	Name string
	New  func() Scheme
} {
	return []struct {
		Name string
		New  func() Scheme
	}{
		{"norefresh", NewNoRefresh},
		{"direct", NewDirect},
		{"direct-rep", NewDirectReplicated},
		{"hierarchical-norep", NewHierarchicalNoRep},
		{"hierarchical", NewHierarchical},
		{"random-rep", NewRandomReplicated},
		{"spray", func() Scheme { return NewSprayAndWait(0) }},
		{"epidemic", NewEpidemic},
	}
}

// SchemeByName returns a fresh scheme instance by its CLI name.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.Name == name {
			return s.New(), nil
		}
	}
	return nil, fmt.Errorf("core: unknown scheme %q", name)
}
