package mobility

import (
	"fmt"
	"slices"

	"freshcache/internal/trace"
)

// Day and Hour are the time units used by preset parameters, in seconds.
const (
	Hour = 3600.0
	Day  = 24 * Hour
)

// Diurnal wraps a generator and thins out contacts that start during the
// nightly quiet window [NightStart, NightEnd) of each day, reproducing the
// strong day/night cycle of conference and campus traces. Thinning a
// Poisson process keeps it Poisson, so the analytical model still applies
// to the day hours.
type Diurnal struct {
	Gen        Generator
	NightStart float64 // offset into each day (s)
	NightEnd   float64 // offset into each day (s); must exceed NightStart
}

// Name implements Generator.
func (d *Diurnal) Name() string { return d.Gen.Name() }

// Generate implements Generator.
func (d *Diurnal) Generate(seed int64) (*trace.Trace, error) {
	if d.NightEnd <= d.NightStart || d.NightEnd-d.NightStart >= Day {
		return nil, fmt.Errorf("mobility: bad night window [%v,%v)", d.NightStart, d.NightEnd)
	}
	t, err := d.Gen.Generate(seed)
	if err != nil {
		return nil, err
	}
	kept := t.Contacts[:0]
	for _, c := range t.Contacts {
		tod := c.Start - float64(int(c.Start/Day))*Day
		if tod >= d.NightStart && tod < d.NightEnd {
			continue
		}
		kept = append(kept, c)
	}
	// The generator sized its slice for every contact, night included; a
	// copy of the day's alone is about 40% smaller for the trace's life.
	t.Contacts = slices.Clone(kept)
	return t, nil
}

// RealityLike returns the synthetic stand-in for the MIT Reality Mining
// Bluetooth trace: 97 nodes with pronounced community structure (research
// groups), a small set of highly social hubs, sparse cross-community
// contacts, and multi-hour inter-contact times. The real trace spans ~9
// months; we generate 30 days, which the paper-family methodology treats
// as sufficient once rates have converged (the warmup split handles
// estimator convergence).
func RealityLike() Generator {
	return &Diurnal{
		Gen: &Community{
			TraceName:         "reality-like",
			N:                 97,
			Duration:          30 * Day,
			Communities:       6,
			IntraRate:         5.0 / Day,
			InterRate:         0.4 / Day,
			RateShape:         0.6,
			InterPairFraction: 0.45,
			HubFraction:       0.08,
			HubBoost:          3.0,
			MeanContactDur:    5 * 60,
		},
		NightStart: 0,
		NightEnd:   7 * Hour,
	}
}

// InfocomLike returns the synthetic stand-in for the Haggle Infocom'06
// conference trace: 78 mobile nodes over 4 days, dense daytime contacts
// (session rooms mix most attendees), shorter contact durations, and a
// hard day/night cycle.
func InfocomLike() Generator {
	return &Diurnal{
		Gen: &Community{
			TraceName:         "infocom-like",
			N:                 78,
			Duration:          4 * Day,
			Communities:       4,
			IntraRate:         16.0 / Day,
			InterRate:         5.0 / Day,
			RateShape:         0.8,
			InterPairFraction: 0.9,
			HubFraction:       0.1,
			HubBoost:          2.5,
			MeanContactDur:    2 * 60,
		},
		NightStart: 0,
		NightEnd:   8 * Hour,
	}
}

// LargeCommunity is the large-N community trace of experiment E21 at n
// nodes: a community-structured network whose per-node contact load stays
// constant as n grows (fixed community size, O(1) expected
// inter-community partners per node), so contacts — and the sparse
// structures built from them — scale as O(n), not O(n²).
func LargeCommunity(n int) *Community {
	return &Community{
		TraceName:   fmt.Sprintf("large-%d", n),
		N:           n,
		Duration:    4 * Day,
		Communities: n / 20,
		IntraRate:   4.0 / Day,
		InterRate:   1.0 / Day,
		RateShape:   0.8,
		// ~32 inter-community partners per node regardless of n: enough
		// cross-community edges that the caching overlay stays
		// contact-connected (two-hop relay paths exist), while contacts
		// still grow as O(n).
		InterPairFraction: 32.0 / float64(n),
		HubFraction:       0.05,
		HubBoost:          3,
		MeanContactDur:    120,
	}
}

// Presets maps the preset names accepted by the CLI tools to their
// constructors.
func Presets() map[string]func() Generator {
	return map[string]func() Generator{
		"reality-like": RealityLike,
		"infocom-like": InfocomLike,
	}
}

// Preset returns the named preset generator or an error listing the valid
// names.
func Preset(name string) (Generator, error) {
	ctor, ok := Presets()[name]
	if !ok {
		return nil, fmt.Errorf("mobility: unknown preset %q (have reality-like, infocom-like)", name)
	}
	return ctor(), nil
}
