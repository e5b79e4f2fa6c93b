package metrics

import (
	"math"
	"testing"

	"freshcache/internal/cache"
)

func TestHistObserveAndQuantile(t *testing.T) {
	h := NewHist([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50} {
		h.Observe(v)
	}
	if h.Total != 4 || h.Sum != 60.5 {
		t.Fatalf("total=%d sum=%v", h.Total, h.Sum)
	}
	if m := h.Mean(); math.Abs(m-60.5/4) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	// p50 falls inside the (1,10] bucket, p99 inside (10,100].
	if q := h.Quantile(0.5); q <= 1 || q > 10 {
		t.Fatalf("p50 = %v, want in (1,10]", q)
	}
	if q := h.Quantile(0.99); q <= 10 || q > 100 {
		t.Fatalf("p99 = %v, want in (10,100]", q)
	}
	// Overflow observations clamp to the top bound.
	h2 := NewHist([]float64{1, 10})
	h2.Observe(1e9)
	if q := h2.Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile = %v, want 10", q)
	}
}

func TestHistMergeAndClone(t *testing.T) {
	a := NewHist(DelayBuckets())
	b := NewHist(DelayBuckets())
	a.Observe(5)
	b.Observe(50)
	b.Observe(5000)
	a.Merge(b)
	if a.Total != 3 || a.Sum != 5055 {
		t.Fatalf("merged: total=%d sum=%v", a.Total, a.Sum)
	}
	// Shape mismatches and nils are ignored, not corrupted.
	a.Merge(NewHist([]float64{1}))
	a.Merge(nil)
	if a.Total != 3 {
		t.Fatalf("mismatched merge changed total: %d", a.Total)
	}
	c := a.Clone()
	c.Observe(1)
	if a.Total != 3 {
		t.Fatal("clone shares state")
	}
	var nilH *Hist
	if nilH.Clone() != nil {
		t.Fatal("nil clone")
	}
	nilH.Observe(1) // must not panic
}

func TestAggregateHistograms(t *testing.T) {
	c := New()
	c.RecordGeneration()
	c.RecordDelivery(Delivery{Item: 0, Version: 0, Node: 1, GeneratedAt: 0, DeliveredAt: 50, OnTime: true})
	c.RecordDelivery(Delivery{Item: 0, Version: 0, Node: 2, GeneratedAt: 0, DeliveredAt: 450, OnTime: false})
	qs := []*cache.Query{
		{ID: 0, IssuedAt: 0, Served: true, ServedAt: 100, ServedGeneratedAt: 40, Valid: true},
		{ID: 1, IssuedAt: 0}, // unserved: no age observation
	}
	r := Aggregate(c, qs, nil, 0)
	if r.DeliveryDelayHist == nil || r.DeliveryDelayHist.Total != 2 {
		t.Fatalf("delivery hist: %+v", r.DeliveryDelayHist)
	}
	if r.DeliveryDelayHist.Sum != 500 {
		t.Fatalf("delivery hist sum = %v", r.DeliveryDelayHist.Sum)
	}
	if r.RefreshAgeHist == nil || r.RefreshAgeHist.Total != 1 || r.RefreshAgeHist.Sum != 60 {
		t.Fatalf("age hist: %+v", r.RefreshAgeHist)
	}
	if r.P50RefreshDelay <= 0 || r.P99RefreshDelay < r.P50RefreshDelay {
		t.Fatalf("percentiles: p50=%v p99=%v", r.P50RefreshDelay, r.P99RefreshDelay)
	}
}
