package network

import (
	"fmt"
	"math"
	"sort"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// ChurnConfig turns nodes off and on over the run: each node alternates
// independent exponential up and down periods (battery depletion, radios
// switched off). A contact fires only when both endpoints are up at its
// start. Zero value = churn disabled.
type ChurnConfig struct {
	MeanUp   float64 // mean up-period in seconds
	MeanDown float64 // mean down-period in seconds
}

// Enabled reports whether churn is configured.
func (c ChurnConfig) Enabled() bool { return c.MeanUp > 0 || c.MeanDown > 0 }

func (c ChurnConfig) validate() error {
	if c == (ChurnConfig{}) {
		return nil
	}
	// Written so that NaN, which fails every comparison, fails it too.
	if !(c.MeanUp > 0 && c.MeanDown > 0) || math.IsInf(c.MeanUp, 1) || math.IsInf(c.MeanDown, 1) {
		return fmt.Errorf("network: churn needs finite positive mean up/down, got %v/%v", c.MeanUp, c.MeanDown)
	}
	return nil
}

// availability holds each node's precomputed on/off toggle times. A node
// starts up at t=0; toggles[i] alternate up→down at even indices and
// down→up at odd ones.
type availability struct {
	toggles [][]float64
}

// buildAvailability precomputes per-node toggle schedules over [0,
// duration) deterministically from the seed.
func buildAvailability(cfg ChurnConfig, n int, duration float64, seed int64) *availability {
	rng := stats.Derive(seed, "network/churn")
	av := &availability{toggles: make([][]float64, n)}
	for i := 0; i < n; i++ {
		// Nodes start up; the first toggle (up→down) comes after an
		// up-period, then periods alternate.
		t := stats.Exp(rng, 1/cfg.MeanUp)
		var ts []float64
		for t < duration {
			ts = append(ts, t)
			if len(ts)%2 == 1 {
				// Odd count: the node just went down; next gap is a
				// down-period.
				t += stats.Exp(rng, 1/cfg.MeanDown)
			} else {
				t += stats.Exp(rng, 1/cfg.MeanUp)
			}
		}
		av.toggles[i] = ts
	}
	return av
}

// isUp reports whether the node is up at time t: nodes start up, and each
// toggle flips the state.
func (a *availability) isUp(node trace.NodeID, t float64) bool {
	ts := a.toggles[node]
	// Number of toggles strictly before t.
	k := sort.SearchFloat64s(ts, t)
	return k%2 == 0
}
