package cache

import (
	"math"
	"testing"
)

func testItem(id ItemID) Item {
	return Item{
		ID:              id,
		Source:          0,
		RefreshInterval: 100,
		FreshnessWindow: 50,
		Lifetime:        200,
		Size:            1,
	}
}

func testCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	items := make([]Item, n)
	for i := range items {
		items[i] = testItem(ItemID(i))
	}
	c, err := NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestItemValidate(t *testing.T) {
	if err := testItem(0).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Item)
	}{
		{"negative id", func(it *Item) { it.ID = -1 }},
		{"negative source", func(it *Item) { it.Source = -1 }},
		{"zero refresh", func(it *Item) { it.RefreshInterval = 0 }},
		{"zero window", func(it *Item) { it.FreshnessWindow = 0 }},
		{"lifetime below interval", func(it *Item) { it.Lifetime = 50 }},
		{"zero size", func(it *Item) { it.Size = 0 }},
	}
	for _, tc := range cases {
		it := testItem(0)
		tc.mutate(&it)
		if err := it.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCatalog(t *testing.T) {
	c := testCatalog(t, 3)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	it, err := c.Item(2)
	if err != nil || it.ID != 2 {
		t.Fatalf("Item(2) = %+v, %v", it, err)
	}
	if _, err := c.Item(5); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if _, err := c.Item(-1); err == nil {
		t.Fatal("negative item accepted")
	}
	// Items() is a copy.
	items := c.Items()
	items[0].Size = 99
	it0, _ := c.Item(0)
	if it0.Size == 99 {
		t.Fatal("Items() exposed internal state")
	}
}

func TestCatalogRejects(t *testing.T) {
	if _, err := NewCatalog(nil); err == nil {
		t.Fatal("empty catalog accepted")
	}
	if _, err := NewCatalog([]Item{testItem(1)}); err == nil {
		t.Fatal("misnumbered catalog accepted")
	}
	bad := testItem(0)
	bad.Size = 0
	if _, err := NewCatalog([]Item{bad}); err == nil {
		t.Fatal("invalid item accepted")
	}
}

func TestCurrentVersion(t *testing.T) {
	it := testItem(0) // R = 100
	cases := []struct {
		now  float64
		want int
	}{
		{-10, -1}, {0, 0}, {99.9, 0}, {100, 1}, {250, 2},
	}
	for _, tc := range cases {
		if got := CurrentVersion(it, 0, tc.now); got != tc.want {
			t.Errorf("CurrentVersion(t=%v) = %d, want %d", tc.now, got, tc.want)
		}
	}
	// With an epoch offset.
	if got := CurrentVersion(it, 1000, 1150); got != 1 {
		t.Errorf("epoch version = %d, want 1", got)
	}
}

func TestVersionTime(t *testing.T) {
	it := testItem(0)
	if got := VersionTime(it, 1000, 3); got != 1300 {
		t.Fatalf("VersionTime = %v, want 1300", got)
	}
}

func TestVersionRoundTrip(t *testing.T) {
	it := testItem(0)
	for v := 0; v < 50; v++ {
		at := VersionTime(it, 500, v)
		if got := CurrentVersion(it, 500, at); got != v {
			t.Fatalf("round trip v=%d: got %d", v, got)
		}
		if got := CurrentVersion(it, 500, math.Nextafter(at, 0)); got != v-1 {
			t.Fatalf("just before v=%d: got %d, want %d", v, got, v-1)
		}
	}
}

func TestCopyExpired(t *testing.T) {
	it := testItem(0) // lifetime 200
	c := Copy{Item: 0, Version: 1, GeneratedAt: 100}
	if c.Expired(it, 250) {
		t.Fatal("copy expired too early")
	}
	if !c.Expired(it, 301) {
		t.Fatal("copy not expired after lifetime")
	}
}

func TestStorePutGet(t *testing.T) {
	cat := testCatalog(t, 3)
	s, err := NewStore(cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Put(Copy{Item: 1, Version: 0, GeneratedAt: 0, ReceivedAt: 5}, 5)
	if err != nil || !ok {
		t.Fatalf("put: %v %v", ok, err)
	}
	got, ok := s.Get(1, 6)
	if !ok || got.Version != 0 {
		t.Fatalf("get: %+v %v", got, ok)
	}
	if _, ok := s.Get(2, 6); ok {
		t.Fatal("absent item found")
	}
}

func TestStoreRejectsOlderVersions(t *testing.T) {
	cat := testCatalog(t, 1)
	s, err := NewStore(cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Copy{Item: 0, Version: 3, GeneratedAt: 300}, 310); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Put(Copy{Item: 0, Version: 2, GeneratedAt: 200}, 320)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("older version accepted")
	}
	ok, err = s.Put(Copy{Item: 0, Version: 3, GeneratedAt: 300}, 330)
	if err != nil || ok {
		t.Fatalf("equal version: ok=%v err=%v", ok, err)
	}
	got, _ := s.Peek(0)
	if got.Version != 3 {
		t.Fatalf("stored version = %d, want 3", got.Version)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	cat := testCatalog(t, 4)
	s, err := NewStore(cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPut := func(id ItemID, now float64) {
		t.Helper()
		if _, err := s.Put(Copy{Item: id, Version: 0}, now); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(0, 1)
	mustPut(1, 2)
	s.Get(0, 3) // touch 0: now 1 is LRU
	mustPut(2, 4)
	if _, ok := s.Peek(1); ok {
		t.Fatal("LRU item 1 not evicted")
	}
	if _, ok := s.Peek(0); !ok {
		t.Fatal("recently used item 0 evicted")
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d", s.Evictions())
	}
	if s.Used() != 2 || s.Len() != 2 {
		t.Fatalf("used=%d len=%d", s.Used(), s.Len())
	}
}

func TestStoreOversizedItem(t *testing.T) {
	items := []Item{testItem(0)}
	items[0].Size = 10
	cat, err := NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Copy{Item: 0}, 1); err == nil {
		t.Fatal("oversized item accepted")
	}
}

func TestStoreConstructorValidation(t *testing.T) {
	if _, err := NewStore(nil, 0); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := NewStore(testCatalog(t, 1), -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestStoreUnknownItem(t *testing.T) {
	s, err := NewStore(testCatalog(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Copy{Item: 9}, 1); err == nil {
		t.Fatal("unknown item accepted")
	}
}

func TestItemPhase(t *testing.T) {
	it := testItem(0)
	it.Phase = 40 // R = 100
	if err := it.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := CurrentVersion(it, 0, 39); got != -1 {
		t.Fatalf("version before first publication = %d, want -1", got)
	}
	if got := CurrentVersion(it, 0, 40); got != 0 {
		t.Fatalf("version at phase = %d, want 0", got)
	}
	if got := CurrentVersion(it, 0, 139); got != 0 {
		t.Fatalf("version just before v1 = %d, want 0", got)
	}
	if got := CurrentVersion(it, 0, 140); got != 1 {
		t.Fatalf("version at phase+R = %d, want 1", got)
	}
	if got := VersionTime(it, 1000, 2); got != 1240 {
		t.Fatalf("VersionTime = %v, want 1240", got)
	}
}

func TestItemPhaseValidation(t *testing.T) {
	it := testItem(0)
	it.Phase = -1
	if err := it.Validate(); err == nil {
		t.Fatal("negative phase accepted")
	}
	it.Phase = it.RefreshInterval
	if err := it.Validate(); err == nil {
		t.Fatal("phase == R accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if EvictLRU.String() != "lru" || EvictLFU.String() != "lfu" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy empty name")
	}
}

func TestStoreLFUEviction(t *testing.T) {
	cat := testCatalog(t, 4)
	s, err := NewStoreWithPolicy(cat, 2, EvictLFU)
	if err != nil {
		t.Fatal(err)
	}
	mustPut := func(id ItemID, now float64) {
		t.Helper()
		if _, err := s.Put(Copy{Item: id, Version: 0}, now); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(0, 1)
	mustPut(1, 2)
	// Item 0 used 3 times, item 1 used once — but item 1 more recently.
	s.Get(0, 3)
	s.Get(0, 4)
	s.Get(0, 5)
	s.Get(1, 6)
	mustPut(2, 7)
	// LFU must evict 1 (1 use) even though it is more recent than 0.
	if _, ok := s.Peek(1); ok {
		t.Fatal("LFU kept the less-used item")
	}
	if _, ok := s.Peek(0); !ok {
		t.Fatal("LFU evicted the popular item")
	}
}

func TestStoreLFUTieBreaksByRecency(t *testing.T) {
	cat := testCatalog(t, 3)
	s, err := NewStoreWithPolicy(cat, 2, EvictLFU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Copy{Item: 0, Version: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Copy{Item: 1, Version: 0}, 2); err != nil {
		t.Fatal(err)
	}
	// Equal use counts (zero); item 0 is older → evicted.
	if _, err := s.Put(Copy{Item: 2, Version: 0}, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Peek(0); ok {
		t.Fatal("LFU tie-break kept the older item")
	}
	if _, ok := s.Peek(1); !ok {
		t.Fatal("LFU tie-break evicted the newer item")
	}
}

func TestStorePolicyValidation(t *testing.T) {
	if _, err := NewStoreWithPolicy(testCatalog(t, 1), 0, Policy(42)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
