package metrics

import "sort"

// DelayBuckets returns the standard log-spaced bucket bounds (seconds)
// used for delivery-delay and refresh-age histograms: 1s up to ~18h in
// half-decade steps. Small enough to merge cheaply across thousands of
// cells, wide enough to cover an opportunistic network's delay spread.
func DelayBuckets() []float64 {
	return []float64{
		1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 65536,
	}
}

// Hist is a fixed-bucket histogram of nonnegative values. Counts[i] holds
// observations <= Bounds[i]; the final extra bucket holds the overflow.
// It is a plain value type (no atomics): one Hist belongs to one run, and
// cross-run histograms are merged from those (RunStats' readers).
type Hist struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1
	Total  uint64    `json:"total"`
	Sum    float64   `json:"sum"`
	// Min and Max are the exact extremes of the observed values (0 when
	// Total is 0), so reports can print exact ranges instead of bucket
	// bounds.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// NewHist returns an empty histogram over the given ascending bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.Counts[sort.SearchFloat64s(h.Bounds, v)]++
	if h.Total == 0 || v < h.Min {
		h.Min = v
	}
	if h.Total == 0 || v > h.Max {
		h.Max = v
	}
	h.Total++
	h.Sum += v
}

// Merge folds other into h. Histograms must share bounds (they all come
// from the same bucket layout helpers); mismatched shapes are ignored.
func (h *Hist) Merge(other *Hist) {
	if h == nil || other == nil || len(other.Counts) != len(h.Counts) {
		return
	}
	if other.Total > 0 {
		if h.Total == 0 || other.Min < h.Min {
			h.Min = other.Min
		}
		if h.Total == 0 || other.Max > h.Max {
			h.Max = other.Max
		}
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Total += other.Total
	h.Sum += other.Sum
}

// Mean returns the mean of the observed values (0 when empty).
func (h *Hist) Mean() float64 {
	if h == nil || h.Total == 0 {
		return 0
	}
	return h.Sum / float64(h.Total)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the containing bucket. Overflow-bucket hits clamp to the top
// bound. Returns 0 when the histogram is empty.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Total)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i >= len(h.Bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return h.Bounds[len(h.Bounds)-1]
			}
			hi := h.Bounds[i]
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}
