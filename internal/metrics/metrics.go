// Package metrics collects and aggregates the quantities the paper's
// evaluation reports: the cache freshness ratio over time, the validity of
// data access, refresh delivery delays (and the fraction delivered within
// the freshness window), and protocol overhead.
package metrics

import (
	"fmt"

	"freshcache/internal/cache"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Sample is one point of the freshness-ratio time series.
type Sample struct {
	Time  float64
	Ratio float64
}

// Delivery records one version arriving at one caching node's store.
type Delivery struct {
	Item        cache.ItemID
	Version     int
	Node        trace.NodeID
	GeneratedAt float64
	DeliveredAt float64
	// OnTime is true when the delivery met the item's freshness window.
	OnTime bool
}

// Delay returns the delivery delay in seconds.
func (d Delivery) Delay() float64 { return d.DeliveredAt - d.GeneratedAt }

// Collector accumulates raw observations during a run.
type Collector struct {
	samples    []Sample
	deliveries []Delivery
	generated  int // versions generated across all items
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{}
}

// RecordSample appends one freshness-ratio sample.
func (c *Collector) RecordSample(t, ratio float64) {
	c.samples = append(c.samples, Sample{Time: t, Ratio: ratio})
}

// RecordDelivery appends one cache delivery.
func (c *Collector) RecordDelivery(d Delivery) {
	c.deliveries = append(c.deliveries, d)
}

// RecordGeneration counts one version generated at a source.
func (c *Collector) RecordGeneration() {
	c.generated++
}

// Samples returns a copy of the freshness time series. Callers may sort or
// mutate the returned slice freely without corrupting the collector.
func (c *Collector) Samples() []Sample {
	out := make([]Sample, len(c.samples))
	copy(out, c.samples)
	return out
}

// Deliveries returns a copy of the raw delivery log. Callers may reorder it
// without corrupting the collector.
func (c *Collector) Deliveries() []Delivery {
	out := make([]Delivery, len(c.deliveries))
	copy(out, c.deliveries)
	return out
}

// DeliveryCount returns how many deliveries were recorded, without the
// defensive copy Deliveries makes — cheap enough for per-tick sampling.
func (c *Collector) DeliveryCount() int { return len(c.deliveries) }

// Result is the aggregated outcome of one simulation run.
type Result struct {
	Scheme string `json:"scheme"`
	Trace  string `json:"trace"`
	Seed   int64  `json:"seed"`

	// FreshnessRatio is the time-average fraction of (caching node, item)
	// pairs holding the newest version during the measurement phase.
	FreshnessRatio float64 `json:"freshnessRatio"`

	// Query outcomes.
	//
	// QueriesDropped counts workload queries the engine had to discard
	// because they referenced an item missing from the catalog (a
	// malformed external workload). Nonzero values mean the query-derived
	// rates below are computed over fewer queries than the workload asked
	// for — dropped queries used to vanish silently.
	QueriesDropped int     `json:"queriesDropped,omitempty"`
	Queries        int     `json:"queries"`
	Answered       int     `json:"answered"`
	AnsweredOK     float64 `json:"answeredRatio"`
	FreshAnswers   float64 `json:"freshAnswerRatio"` // fresh / answered
	ValidAnswers   float64 `json:"validAnswerRatio"` // valid / answered
	// FreshAccessRate / ValidAccessRate use ALL issued queries as the
	// denominator, so unanswered queries count as failures. They are the
	// headline "validity of data access" quantities: a scheme cannot score
	// well by leaving queries unanswered until a fresh source is met.
	FreshAccessRate float64 `json:"freshAccessRate"`
	ValidAccessRate float64 `json:"validAccessRate"`
	// MeanAccessDelaySec is the mean issue-to-service delay of answered
	// queries.
	MeanAccessDelaySec float64 `json:"meanAccessDelaySec"`

	// Refresh delivery.
	Deliveries        int     `json:"deliveries"`
	OnTimeRatio       float64 `json:"onTimeRatio"` // fraction within freshness window
	MeanRefreshDelay  float64 `json:"meanRefreshDelaySec"`
	P50RefreshDelay   float64 `json:"p50RefreshDelaySec"`
	P90RefreshDelay   float64 `json:"p90RefreshDelaySec"`
	P99RefreshDelay   float64 `json:"p99RefreshDelaySec"`
	VersionsGenerated int     `json:"versionsGenerated"`

	// DeliveryDelayHist buckets the refresh delivery delays (seconds from
	// generation to arrival at a caching node); RefreshAgeHist buckets the
	// age of served copies at query-service time (seconds since the served
	// version was generated). Both use DelayBuckets bounds so they merge
	// across runs in RunStats and the obs roll-ups.
	DeliveryDelayHist *Hist `json:"deliveryDelayHist,omitempty"`
	RefreshAgeHist    *Hist `json:"refreshAgeHist,omitempty"`

	// Overhead.
	Transmissions       int            `json:"transmissions"`
	TxPerVersion        float64        `json:"txPerVersion"`
	TransmissionsByKind map[string]int `json:"transmissionsByKind"`
	SimulatedEventCount uint64         `json:"events"`
	WallClockSeconds    float64        `json:"wallClockSeconds"`

	// SourceTxShare is the fraction of refresh-related transmissions
	// originated by the data sources. Source-centric schemes approach 1;
	// the hierarchy's point is to push this down by distributing the
	// refreshing responsibility over the caching nodes.
	SourceTxShare float64 `json:"sourceTxShare"`
	// MaxNodeTxShare is the largest single node's share of refresh-related
	// transmissions — the hot spot.
	MaxNodeTxShare float64 `json:"maxNodeTxShare"`
	// LoadGini is the Gini coefficient of per-node refresh transmissions
	// (0 = perfectly even, →1 = one node does everything).
	LoadGini float64 `json:"loadGini"`

	// SchemeStats carries scheme-internal statistics (e.g. the replication
	// planner's analytical delivery probabilities) for analysis-validation
	// experiments.
	SchemeStats map[string]float64 `json:"schemeStats,omitempty"`
}

// Aggregate folds the collector, query log and overhead counters into a
// Result.
func Aggregate(c *Collector, queries []*cache.Query, txByKind map[string]int, txTotal int) Result {
	r := Result{
		VersionsGenerated:   c.generated,
		Transmissions:       txTotal,
		TransmissionsByKind: txByKind,
	}

	if len(c.samples) > 0 {
		var sum float64
		for _, s := range c.samples {
			sum += s.Ratio
		}
		r.FreshnessRatio = sum / float64(len(c.samples))
	}

	r.Queries = len(queries)
	var delays []float64
	fresh, valid := 0, 0
	for _, q := range queries {
		if !q.Served {
			continue
		}
		r.Answered++
		delays = append(delays, q.ServedAt-q.IssuedAt)
		if r.RefreshAgeHist == nil {
			r.RefreshAgeHist = NewHist(DelayBuckets())
		}
		r.RefreshAgeHist.Observe(q.ServedAt - q.ServedGeneratedAt)
		if q.Fresh {
			fresh++
		}
		if q.Valid {
			valid++
		}
	}
	if r.Queries > 0 {
		r.AnsweredOK = float64(r.Answered) / float64(r.Queries)
	}
	if r.Answered > 0 {
		r.FreshAnswers = float64(fresh) / float64(r.Answered)
		r.ValidAnswers = float64(valid) / float64(r.Answered)
		r.MeanAccessDelaySec = stats.Mean(delays)
	}
	if r.Queries > 0 {
		r.FreshAccessRate = float64(fresh) / float64(r.Queries)
		r.ValidAccessRate = float64(valid) / float64(r.Queries)
	}

	r.Deliveries = len(c.deliveries)
	if len(c.deliveries) > 0 {
		onTime := 0
		dls := make([]float64, 0, len(c.deliveries))
		r.DeliveryDelayHist = NewHist(DelayBuckets())
		for _, d := range c.deliveries {
			if d.OnTime {
				onTime++
			}
			dls = append(dls, d.Delay())
			r.DeliveryDelayHist.Observe(d.Delay())
		}
		r.OnTimeRatio = float64(onTime) / float64(len(c.deliveries))
		s := stats.Summarize(dls)
		r.MeanRefreshDelay = s.Mean
		r.P50RefreshDelay = s.Median
		r.P90RefreshDelay = s.P90
		r.P99RefreshDelay = s.P99
	}

	if c.generated > 0 {
		r.TxPerVersion = float64(txTotal) / float64(c.generated)
	}
	return r
}

// DelayCDF returns the empirical CDF of refresh delivery delays evaluated
// at the probe points (seconds).
func (c *Collector) DelayCDF(probes []float64) []float64 {
	delays := make([]float64, 0, len(c.deliveries))
	for _, d := range c.deliveries {
		delays = append(delays, d.Delay())
	}
	return stats.CDFPoints(delays, probes)
}

// FirstDeliveryOnTimeRatio computes, over (item, version, node) triples,
// the fraction whose FIRST delivery met the freshness window — the
// quantity the probabilistic-replication analysis bounds (duplicates via
// extra relays must not inflate it).
func (c *Collector) FirstDeliveryOnTimeRatio() float64 {
	type key struct {
		item    cache.ItemID
		version int
		node    trace.NodeID
	}
	first := make(map[key]Delivery)
	for _, d := range c.deliveries {
		k := key{d.Item, d.Version, d.Node}
		if prev, ok := first[k]; !ok || d.DeliveredAt < prev.DeliveredAt {
			first[k] = d
		}
	}
	if len(first) == 0 {
		return 0
	}
	onTime := 0
	for _, d := range first {
		if d.OnTime {
			onTime++
		}
	}
	return float64(onTime) / float64(len(first))
}

// String renders the headline numbers of a result.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: freshness=%.3f validAccess=%.3f freshAccess=%.3f answered=%.3f tx/ver=%.1f delay(mean)=%.0fs",
		r.Scheme, r.Trace, r.FreshnessRatio, r.ValidAnswers, r.FreshAnswers, r.AnsweredOK, r.TxPerVersion, r.MeanRefreshDelay)
}
