package cache

import (
	"fmt"
)

// Policy selects the store's eviction policy.
type Policy int

const (
	// EvictLRU evicts the least-recently-used item (default).
	EvictLRU Policy = iota
	// EvictLFU evicts the least-frequently-used item (ties by recency).
	EvictLFU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictLFU:
		return "lfu"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Store is one node's cache: at most one copy per item, bounded total
// size, LRU or LFU eviction. Item IDs are dense, so the per-item state is
// flat slices indexed by ItemID — the per-contact lookup path (Peek,
// Put) does no hashing and no allocation. The zero value is not usable;
// create with NewStore.
type Store struct {
	capacity int // total size units; 0 = unlimited
	policy   Policy
	used     int
	present  []bool
	copies   []Copy
	lastUsed []float64
	useCount []int
	count    int
	catalog  *Catalog

	evictions int
}

// NewStore creates an LRU store with the given capacity in size units
// (0 = unlimited) over the catalog's items.
func NewStore(catalog *Catalog, capacity int) (*Store, error) {
	return NewStoreWithPolicy(catalog, capacity, EvictLRU)
}

// NewStoreWithPolicy creates a store with an explicit eviction policy.
func NewStoreWithPolicy(catalog *Catalog, capacity int, policy Policy) (*Store, error) {
	if catalog == nil {
		return nil, fmt.Errorf("cache: nil catalog")
	}
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	if policy != EvictLRU && policy != EvictLFU {
		return nil, fmt.Errorf("cache: unknown policy %d", int(policy))
	}
	n := catalog.Len()
	return &Store{
		capacity: capacity,
		policy:   policy,
		present:  make([]bool, n),
		copies:   make([]Copy, n),
		lastUsed: make([]float64, n),
		useCount: make([]int, n),
		catalog:  catalog,
	}, nil
}

// inRange reports whether the ID indexes the store's dense state.
func (s *Store) inRange(id ItemID) bool { return id >= 0 && int(id) < len(s.present) }

// Get returns the stored copy of the item, if any, marking it used at
// time now.
func (s *Store) Get(id ItemID, now float64) (Copy, bool) {
	if !s.inRange(id) || !s.present[id] {
		return Copy{}, false
	}
	s.lastUsed[id] = now
	s.useCount[id]++
	return s.copies[id], true
}

// Touch records n lookups of the item at time now: the same effect on
// the eviction state as n calls to Get whose copies go unused.
func (s *Store) Touch(id ItemID, n int, now float64) {
	if n <= 0 || !s.inRange(id) || !s.present[id] {
		return
	}
	s.lastUsed[id] = now
	s.useCount[id] += n
}

// Peek returns the stored copy without touching recency. Used by metrics
// sampling so observation does not perturb eviction.
func (s *Store) Peek(id ItemID) (Copy, bool) {
	if !s.inRange(id) || !s.present[id] {
		return Copy{}, false
	}
	return s.copies[id], true
}

// Put inserts or replaces the copy of an item, evicting least-recently-
// used other items if needed. A Put of an older (or equal) version than
// the stored one is ignored and reported false — freshness never goes
// backwards. Putting a copy too large for the whole store is an error.
func (s *Store) Put(c Copy, now float64) (bool, error) {
	it, err := s.catalog.Item(c.Item)
	if err != nil {
		return false, err
	}
	if s.present[c.Item] {
		if c.Version <= s.copies[c.Item].Version {
			return false, nil
		}
		// Same item: replace in place; size unchanged.
		s.copies[c.Item] = c
		s.lastUsed[c.Item] = now
		return true, nil
	}
	if s.capacity > 0 {
		if it.Size > s.capacity {
			return false, fmt.Errorf("cache: item %d size %d exceeds store capacity %d", c.Item, it.Size, s.capacity)
		}
		if err := s.evictFor(it.Size); err != nil {
			return false, err
		}
	}
	s.present[c.Item] = true
	s.copies[c.Item] = c
	s.lastUsed[c.Item] = now
	s.useCount[c.Item] = 0
	s.used += it.Size
	s.count++
	return true, nil
}

// evictFor frees space until `need` more units fit, per the store policy.
func (s *Store) evictFor(need int) error {
	for s.used+need > s.capacity {
		victim := ItemID(-1)
		for id := range s.present {
			if !s.present[id] {
				continue
			}
			if victim < 0 || s.worseThan(ItemID(id), victim) {
				victim = ItemID(id)
			}
		}
		if victim < 0 {
			return fmt.Errorf("cache: nothing to evict but %d/%d used", s.used, s.capacity)
		}
		it, err := s.catalog.Item(victim)
		if err != nil {
			return err
		}
		s.remove(victim, it.Size)
		s.evictions++
	}
	return nil
}

// worseThan reports whether a is a better eviction victim than b under the
// store policy, with deterministic tie-breaking (recency, then ID).
func (s *Store) worseThan(a, b ItemID) bool {
	if s.policy == EvictLFU {
		if s.useCount[a] != s.useCount[b] {
			return s.useCount[a] < s.useCount[b]
		}
	}
	if s.lastUsed[a] != s.lastUsed[b] {
		return s.lastUsed[a] < s.lastUsed[b]
	}
	return a < b
}

// remove clears one item's dense state, reclaiming size units.
func (s *Store) remove(id ItemID, size int) {
	s.present[id] = false
	s.copies[id] = Copy{}
	s.lastUsed[id] = 0
	s.useCount[id] = 0
	s.used -= size
	s.count--
}

// Len returns the number of cached items.
func (s *Store) Len() int { return s.count }

// Used returns the occupied size units.
func (s *Store) Used() int { return s.used }

// Evictions returns the number of LRU evictions performed.
func (s *Store) Evictions() int { return s.evictions }
