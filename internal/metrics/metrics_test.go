package metrics

import (
	"math"
	"testing"

	"freshcache/internal/cache"
)

func TestAggregateEmpty(t *testing.T) {
	r := Aggregate(New(), nil, nil, 0)
	if r.FreshnessRatio != 0 || r.Queries != 0 || r.Deliveries != 0 {
		t.Fatalf("empty result: %+v", r)
	}
}

func TestAggregateFreshness(t *testing.T) {
	c := New()
	c.RecordSample(0, 0.5)
	c.RecordSample(10, 1.0)
	r := Aggregate(c, nil, nil, 0)
	if math.Abs(r.FreshnessRatio-0.75) > 1e-12 {
		t.Fatalf("freshness = %v, want 0.75", r.FreshnessRatio)
	}
}

func TestAggregateQueries(t *testing.T) {
	qs := []*cache.Query{
		{ID: 0, IssuedAt: 0, Served: true, ServedAt: 100, Fresh: true, Valid: true},
		{ID: 1, IssuedAt: 0, Served: true, ServedAt: 300, Fresh: false, Valid: true},
		{ID: 2, IssuedAt: 0},
		{ID: 3, IssuedAt: 0},
	}
	r := Aggregate(New(), qs, nil, 0)
	if r.Queries != 4 || r.Answered != 2 {
		t.Fatalf("queries: %+v", r)
	}
	if math.Abs(r.AnsweredOK-0.5) > 1e-12 {
		t.Fatalf("answered ratio = %v", r.AnsweredOK)
	}
	if math.Abs(r.FreshAnswers-0.5) > 1e-12 {
		t.Fatalf("fresh ratio = %v", r.FreshAnswers)
	}
	if math.Abs(r.ValidAnswers-1.0) > 1e-12 {
		t.Fatalf("valid ratio = %v", r.ValidAnswers)
	}
	if math.Abs(r.MeanAccessDelaySec-200) > 1e-12 {
		t.Fatalf("mean delay = %v", r.MeanAccessDelaySec)
	}
}

func TestAggregateDeliveriesAndOverhead(t *testing.T) {
	c := New()
	c.RecordGeneration()
	c.RecordGeneration()
	c.RecordDelivery(Delivery{Item: 0, Version: 0, Node: 1, GeneratedAt: 0, DeliveredAt: 50, OnTime: true})
	c.RecordDelivery(Delivery{Item: 0, Version: 0, Node: 2, GeneratedAt: 0, DeliveredAt: 150, OnTime: false})
	r := Aggregate(c, nil, map[string]int{"refresh": 6}, 6)
	if r.Deliveries != 2 || r.VersionsGenerated != 2 {
		t.Fatalf("counts: %+v", r)
	}
	if math.Abs(r.OnTimeRatio-0.5) > 1e-12 {
		t.Fatalf("on-time = %v", r.OnTimeRatio)
	}
	if math.Abs(r.MeanRefreshDelay-100) > 1e-12 {
		t.Fatalf("mean refresh delay = %v", r.MeanRefreshDelay)
	}
	if math.Abs(r.TxPerVersion-3) > 1e-12 {
		t.Fatalf("tx/version = %v", r.TxPerVersion)
	}
	if r.TransmissionsByKind["refresh"] != 6 {
		t.Fatalf("by kind: %v", r.TransmissionsByKind)
	}
}

func TestDelayCDF(t *testing.T) {
	c := New()
	for _, d := range []float64{10, 20, 30, 40} {
		c.RecordDelivery(Delivery{GeneratedAt: 0, DeliveredAt: d})
	}
	got := c.DelayCDF([]float64{5, 20, 100})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cdf = %v, want %v", got, want)
		}
	}
}

func TestFirstDeliveryOnTimeRatio(t *testing.T) {
	c := New()
	// Same (item, version, node): first delivery on time, duplicate late.
	c.RecordDelivery(Delivery{Item: 0, Version: 1, Node: 5, GeneratedAt: 0, DeliveredAt: 10, OnTime: true})
	c.RecordDelivery(Delivery{Item: 0, Version: 1, Node: 5, GeneratedAt: 0, DeliveredAt: 500, OnTime: false})
	// Another triple: late only.
	c.RecordDelivery(Delivery{Item: 0, Version: 1, Node: 6, GeneratedAt: 0, DeliveredAt: 900, OnTime: false})
	got := c.FirstDeliveryOnTimeRatio()
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("first-delivery on-time = %v, want 0.5", got)
	}
}

func TestFirstDeliveryOnTimeRatioEmpty(t *testing.T) {
	if got := New().FirstDeliveryOnTimeRatio(); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestFirstDeliveryPicksEarliestRegardlessOfLogOrder(t *testing.T) {
	c := New()
	c.RecordDelivery(Delivery{Item: 0, Version: 1, Node: 5, GeneratedAt: 0, DeliveredAt: 500, OnTime: false})
	c.RecordDelivery(Delivery{Item: 0, Version: 1, Node: 5, GeneratedAt: 0, DeliveredAt: 10, OnTime: true})
	if got := c.FirstDeliveryOnTimeRatio(); got != 1 {
		t.Fatalf("ratio = %v, want 1", got)
	}
}

// Samples and Deliveries hand out defensive copies: sorting or mutating
// what they return must not corrupt the collector's internal logs.
func TestAccessorsReturnCopies(t *testing.T) {
	c := New()
	c.RecordSample(10, 0.25)
	c.RecordSample(20, 0.75)
	c.RecordDelivery(Delivery{Item: 1, Version: 2, Node: 3, GeneratedAt: 0, DeliveredAt: 50, OnTime: true})
	c.RecordDelivery(Delivery{Item: 0, Version: 0, Node: 0, GeneratedAt: 0, DeliveredAt: 5, OnTime: false})

	smp := c.Samples()
	smp[0] = Sample{Time: -1, Ratio: -1}
	if got := c.Samples()[0]; got.Time != 10 || got.Ratio != 0.25 {
		t.Fatalf("sample log corrupted through accessor: %+v", got)
	}

	ds := c.Deliveries()
	ds[0], ds[1] = ds[1], ds[0] // reorders the copy
	ds[0].Item = 99
	fresh := c.Deliveries()
	if fresh[0].Item != 1 || fresh[0].DeliveredAt != 50 {
		t.Fatalf("delivery log corrupted through accessor: %+v", fresh[0])
	}
}

func TestDeliveryDelay(t *testing.T) {
	d := Delivery{GeneratedAt: 100, DeliveredAt: 175}
	if d.Delay() != 75 {
		t.Fatalf("delay = %v", d.Delay())
	}
}

func TestResultString(t *testing.T) {
	r := Result{Scheme: "hier", Trace: "x"}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}
