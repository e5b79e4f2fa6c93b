package core

import (
	"freshcache/internal/cache"
	"freshcache/internal/network"
	"freshcache/internal/trace"
)

// Query delegation is the optional two-way relayed access path of the
// cooperative-caching substrate: instead of waiting to meet a provider
// itself, a requester hands copies of a pending query to the first Q
// relays it meets; a relay that meets a provider (caching node or source)
// fetches the data and carries the response back until it meets the
// requester again. It trades extra transmissions for access delay —
// exactly the trade the engine's metrics expose.

// delegatedQuery is one query copy parked at a relay, possibly already
// carrying the fetched response.
type delegatedQuery struct {
	q *cache.Query
	// response, valid when hasCopy.
	copy    cache.Copy
	hasCopy bool
}

// delegationState is owned by the engine; zero value means delegation is
// disabled.
type delegationState struct {
	// maxRelays is the per-query delegation budget Q.
	maxRelays int
	// carried[relay] are the query copies the relay holds, in hand-off
	// order.
	carried map[trace.NodeID][]*delegatedQuery
	// handedOut[queryID] counts relays currently or previously carrying
	// the query.
	handedOut map[int]int
	// carriedBy[queryID][relay] prevents duplicate hand-offs.
	carriedBy map[int]map[trace.NodeID]bool
}

func newDelegationState(maxRelays int) *delegationState {
	return &delegationState{
		maxRelays: maxRelays,
		carried:   make(map[trace.NodeID][]*delegatedQuery),
		handedOut: make(map[int]int),
		carriedBy: make(map[int]map[trace.NodeID]bool),
	}
}

// processContact runs the three delegation steps across a live contact,
// in both directions: response delivery, response fetch, then query
// hand-off (so a single contact never both hands off and immediately
// fetches through the same relay — that would be a free teleport).
func (e *Engine) processDelegation(c *network.Contact) {
	d := e.delegation
	if d == nil {
		return
	}
	e.deliverResponses(c, c.A, c.B)
	e.deliverResponses(c, c.B, c.A)
	e.fetchResponses(c, c.A, c.B)
	e.fetchResponses(c, c.B, c.A)
	e.handOffQueries(c, c.A, c.B)
	e.handOffQueries(c, c.B, c.A)
}

// handOffQueries lets `requester` delegate its pending queries to `relay`.
func (e *Engine) handOffQueries(c *network.Contact, requester, relay trace.NodeID) {
	d := e.delegation
	// Nothing below changes the book, so the live pending list needs no
	// snapshot.
	for _, q := range e.book.Pending(requester) {
		if d.handedOut[q.ID] >= d.maxRelays {
			continue
		}
		if d.carriedBy[q.ID][relay] || relay == q.Requester {
			continue
		}
		// Providers answer directly (resolveQueries ran first); handing
		// them the query too would only double-count.
		if e.isProvider(relay, q.Item) {
			continue
		}
		if !c.Send(requester, relay, "query") {
			return
		}
		dq := &delegatedQuery{q: q}
		d.carried[relay] = append(d.carried[relay], dq)
		d.handedOut[q.ID]++
		if d.carriedBy[q.ID] == nil {
			d.carriedBy[q.ID] = make(map[trace.NodeID]bool)
		}
		d.carriedBy[q.ID][relay] = true
	}
}

// fetchResponses lets `relay` pull data for carried queries from a
// provider it is in contact with.
func (e *Engine) fetchResponses(c *network.Contact, relay, provider trace.NodeID) {
	if !e.canServe[provider] {
		return
	}
	carried := e.delegation.carried[relay]
	if len(carried) == 0 {
		return
	}
	for _, dq := range carried {
		if dq.hasCopy || dq.q.Served {
			continue
		}
		cp, ok := e.providerCopy(provider, dq.q.Item, c.Time)
		if !ok {
			continue
		}
		if !c.Send(provider, relay, "data") {
			return
		}
		dq.copy = cp
		dq.hasCopy = true
	}
}

// deliverResponses lets `relay` hand fetched responses back to the
// requester.
func (e *Engine) deliverResponses(c *network.Contact, relay, requester trace.NodeID) {
	d := e.delegation
	carried := d.carried[relay]
	if len(carried) == 0 {
		return
	}
	kept := carried[:0]
	// After a lost send the relay hands nothing more back this contact.
	lost := false
	for _, dq := range carried {
		q := dq.q
		switch {
		case q.Served:
			continue // resolved elsewhere: drop silently
		case lost || !dq.hasCopy || q.Requester != requester:
			kept = append(kept, dq)
			continue
		}
		it, err := e.cfg.Catalog.Item(q.Item)
		if err != nil {
			continue
		}
		if dq.copy.Expired(it, c.Time) {
			// The response went stale in transit; expired data is never
			// provided. Keep carrying nothing — drop the copy, keep the
			// query in case a fresher provider shows up.
			dq.hasCopy = false
			kept = append(kept, dq)
			continue
		}
		if !c.Send(relay, requester, "data") {
			lost = true
			kept = append(kept, dq)
			continue
		}
		_ = e.book.Resolve(q, it, dq.copy, e.rt.Epoch, c.Time)
	}
	d.carried[relay] = kept
}

// isProvider reports whether the node can serve the item right now.
func (e *Engine) isProvider(node trace.NodeID, item cache.ItemID) bool {
	it, err := e.cfg.Catalog.Item(item)
	if err != nil {
		return false
	}
	if node == it.Source {
		return true
	}
	return e.store(node) != nil
}

// providerCopy returns the copy the provider serves for the item, if any,
// and records the lookup as a use of the provider's stored copy: serving a
// query is a use, and so is finding the copy expired, and the eviction
// policies (LRU/LFU) must see both. Metrics sampling uses Peek instead.
func (e *Engine) providerCopy(provider trace.NodeID, item cache.ItemID, now float64) (cache.Copy, bool) {
	it, err := e.cfg.Catalog.Item(item)
	if err != nil {
		return cache.Copy{}, false
	}
	if st := e.store(provider); st != nil && provider != it.Source {
		st.Touch(item, 1, now)
	}
	return e.servableCopy(provider, it, now)
}

// servableCopy returns the copy the provider would serve for the item, if
// any, without recording a use: the source always serves the current
// version; caching nodes serve their unexpired stored copy.
func (e *Engine) servableCopy(provider trace.NodeID, it cache.Item, now float64) (cache.Copy, bool) {
	if provider == it.Source {
		v := cache.CurrentVersion(it, e.rt.Epoch, now)
		if v < 0 {
			return cache.Copy{}, false
		}
		return cache.Copy{Item: it.ID, Version: v, GeneratedAt: cache.VersionTime(it, e.rt.Epoch, v), ReceivedAt: now}, true
	}
	st := e.store(provider)
	if st == nil {
		return cache.Copy{}, false
	}
	cp, ok := st.Peek(it.ID)
	if !ok || cp.Expired(it, now) {
		return cache.Copy{}, false
	}
	return cp, true
}
