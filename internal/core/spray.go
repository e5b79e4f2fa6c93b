package core

import (
	"sort"

	"freshcache/internal/cache"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// sprayScheme is the classic DTN baseline adapted to refreshing: the
// source mints L logical copies of every new version and binary-sprays
// them (a holder with more than one token gives half to any node it meets
// that lacks the version); any token holder that meets a caching node
// hands the data over without spending a token. No contact-rate knowledge
// is used at all — the knowledge-free counterpart to the paper's
// analysis-driven replication.
type sprayScheme struct {
	rt *Runtime

	// tokens[node][key] is the number of logical copies the node holds.
	tokens map[trace.NodeID]map[copyKey]int
	// meta[key] records the version's generation time and expiry.
	meta map[copyKey]sprayMeta
	// spanOf[node][key] is the span the node's tokens for the version
	// arrived under, allocated only when lineage is on.
	spanOf map[trace.NodeID]map[copyKey]obs.SpanID
}

type sprayMeta struct {
	genAt  float64
	expire float64
}

var _ Scheme = (*sprayScheme)(nil)

// sprayCopies is L, the number of logical copies minted per version.
const sprayCopies = 8

// NewSprayAndWait returns the spray-and-wait refresh baseline.
func NewSprayAndWait() Scheme { return &sprayScheme{} }

// Name implements Scheme.
func (s *sprayScheme) Name() string { return "spray" }

// Init implements Scheme.
func (s *sprayScheme) Init(rt *Runtime) error {
	s.rt = rt
	s.tokens = make(map[trace.NodeID]map[copyKey]int, rt.N)
	s.meta = make(map[copyKey]sprayMeta)
	s.spanOf = nil
	if rt.Rec.Lineage != nil {
		s.spanOf = make(map[trace.NodeID]map[copyKey]obs.SpanID, rt.N)
	}
	return nil
}

// tokenSpan returns the span the node's tokens for key arrived under.
func (s *sprayScheme) tokenSpan(node trace.NodeID, key copyKey) obs.SpanID {
	if s.spanOf == nil {
		return 0
	}
	return s.spanOf[node][key]
}

// setTokenSpan records the span backing the node's tokens for key.
func (s *sprayScheme) setTokenSpan(node trace.NodeID, key copyKey, id obs.SpanID) {
	if s.spanOf == nil {
		return
	}
	m := s.spanOf[node]
	if m == nil {
		m = make(map[copyKey]obs.SpanID)
		s.spanOf[node] = m
	}
	m[key] = id
}

// OnGenerate implements Scheme: the source mints L tokens and drops its
// tokens for the superseded version.
func (s *sprayScheme) OnGenerate(it cache.Item, version int, now float64) {
	key := copyKey{item: it.ID, version: version}
	s.meta[key] = sprayMeta{genAt: now, expire: now + it.Lifetime}
	src := s.tokens[it.Source]
	if src == nil {
		src = make(map[copyKey]int)
		s.tokens[it.Source] = src
	}
	delete(src, copyKey{item: it.ID, version: version - 1})
	src[key] = sprayCopies
	s.setTokenSpan(it.Source, key, s.rt.Rec.Root(int32(it.ID), int32(version)))
}

// OnContact implements Scheme.
func (s *sprayScheme) OnContact(c *network.Contact) {
	s.expire(c.A, c.Time)
	s.expire(c.B, c.Time)
	s.act(c, c.A, c.B)
	s.act(c, c.B, c.A)
}

// act runs holder's spray logic toward peer.
func (s *sprayScheme) act(c *network.Contact, holder, peer trace.NodeID) {
	held := s.tokens[holder]
	if len(held) == 0 {
		return
	}
	keys := make([]copyKey, 0, len(held))
	for key := range held {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].item != keys[j].item {
			return keys[i].item < keys[j].item
		}
		return keys[i].version < keys[j].version
	})
	for _, key := range keys {
		m := s.meta[key]
		if s.rt.IsCachingNode(peer) {
			// Delivery: free of tokens, skipped if the peer already has it.
			if v, ok := s.rt.CachedVersion(peer, key.item); !ok || v < key.version {
				if !c.Send(holder, peer, "refresh") {
					return
				}
				cp := cache.Copy{Item: key.item, Version: key.version, GeneratedAt: m.genAt, ReceivedAt: c.Time}
				s.rt.DeliverToCache(holder, peer, cp, c.Time, s.tokenSpan(holder, key))
			}
			continue
		}
		// Binary spray toward a non-caching peer that lacks the version.
		count := held[key]
		if count <= 1 {
			continue
		}
		if s.tokens[peer][key] > 0 {
			continue
		}
		if !c.Send(holder, peer, "relay") {
			return
		}
		give := count / 2
		held[key] = count - give
		dst := s.tokens[peer]
		if dst == nil {
			dst = make(map[copyKey]int)
			s.tokens[peer] = dst
		}
		dst[key] = give
		s.setTokenSpan(peer, key, s.rt.Rec.Handoff(c.Time, s.tokenSpan(holder, key), int32(holder), int32(peer), int32(key.item), int32(key.version)))
	}
}

func (s *sprayScheme) expire(node trace.NodeID, now float64) {
	held := s.tokens[node]
	for key := range held {
		if m, ok := s.meta[key]; ok && now > m.expire {
			delete(held, key)
		}
	}
}
