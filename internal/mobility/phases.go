package mobility

import (
	"fmt"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Phases concatenates generators in time: segment i's contacts occupy
// [sum(d_0..d_{i-1}), sum(d_0..d_i)). It models regime change — e.g. a
// community structure that reshuffles halfway through the observation —
// which is what makes periodic hierarchy rebuilding (core.Config.
// RebuildInterval) earn its keep: rates estimated in one regime go stale
// in the next.
type Phases struct {
	TraceName string
	Segments  []Segment
}

// Segment is one phase: the generator's own Duration defines the segment
// length.
type Segment struct {
	Gen Generator
}

// Name implements Generator.
func (p *Phases) Name() string { return p.TraceName }

// Generate implements Generator: each segment is generated with its own
// derived seed and shifted into place. All segments must agree on the
// node count.
func (p *Phases) Generate(seed int64) (*trace.Trace, error) {
	if len(p.Segments) == 0 {
		return nil, fmt.Errorf("mobility: phases %q has no segments", p.TraceName)
	}
	out := &trace.Trace{Name: p.TraceName}
	segs := make([]*trace.Trace, len(p.Segments))
	contacts := 0
	for i, seg := range p.Segments {
		if seg.Gen == nil {
			return nil, fmt.Errorf("mobility: phases %q segment %d has nil generator", p.TraceName, i)
		}
		segSeed := stats.Derive(seed, fmt.Sprintf("mobility/phases/%s/%d", p.TraceName, i)).Int63()
		tr, err := seg.Gen.Generate(segSeed)
		if err != nil {
			return nil, fmt.Errorf("mobility: phases segment %d: %w", i, err)
		}
		if i == 0 {
			out.N = tr.N
		} else if tr.N != out.N {
			return nil, fmt.Errorf("mobility: phases segment %d has %d nodes, want %d", i, tr.N, out.N)
		}
		segs[i] = tr
		contacts += len(tr.Contacts)
	}
	out.Contacts = make([]trace.Contact, 0, contacts)
	for _, tr := range segs {
		for _, c := range tr.Contacts {
			c.Start += out.Duration
			c.End += out.Duration
			out.Contacts = append(out.Contacts, c)
		}
		out.Duration += tr.Duration
	}
	out.Normalize()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: phases produced invalid trace: %w", err)
	}
	return out, nil
}

// DriftingCommunity is the standard drift scenario of the adaptation
// experiments: the same community model generated twice with different
// (derived) seeds back to back, so community membership, hubs and pair
// rates reshuffle at the midpoint while aggregate statistics stay
// comparable.
func DriftingCommunity(n int, halfDuration float64) Generator {
	half := func(name string) Generator {
		return &Community{
			TraceName: name, N: n, Duration: halfDuration, Communities: 4,
			IntraRate: 8.0 / Day, InterRate: 1.0 / Day, RateShape: 0.8,
			InterPairFraction: 0.7, HubFraction: 0.1, HubBoost: 3, MeanContactDur: 180,
		}
	}
	return &Phases{
		TraceName: "drifting-community",
		Segments: []Segment{
			{Gen: half("drift-a")},
			{Gen: half("drift-b")},
		},
	}
}
