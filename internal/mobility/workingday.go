package mobility

import (
	"fmt"
	"math/rand"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// WorkingDay is a simplified working-day movement model (after Ekman et
// al.): every node commutes daily to its assigned office and meets
// co-present colleagues there; in the evening a fraction of nodes visit
// one of a few gathering places and meet other attendees. Nights and
// homes produce no contacts. Compared with Community, the model produces
// schedule-locked contact patterns: hard day/night structure, office
// cliques, and cross-clique mixing only through evening venues.
type WorkingDay struct {
	TraceName string
	N         int
	Days      int
	// Offices is the number of workplaces; nodes are assigned round-robin
	// then shuffled.
	Offices int
	// OfficeRate is the pairwise contact rate between two colleagues
	// while both are at the office (1/s).
	OfficeRate float64
	// WorkStart/WorkEnd are the nominal office hours as offsets into the
	// day (seconds); each node's arrival and departure get ±Jitter noise.
	WorkStart float64
	WorkEnd   float64
	Jitter    float64
	// EveningVenues is the number of gathering places (0 disables evening
	// activity); each evening every node attends one with probability
	// EveningProb, from EveningStart for EveningLen seconds, meeting other
	// attendees at EveningRate.
	EveningVenues int
	EveningProb   float64
	EveningStart  float64
	EveningLen    float64
	EveningRate   float64
	// MeanContactDur is the mean duration of an individual contact (s).
	MeanContactDur float64
}

// Name implements Generator.
func (g *WorkingDay) Name() string { return g.TraceName }

func (g *WorkingDay) validate() error {
	switch {
	case g.N < 2:
		return fmt.Errorf("mobility: need at least 2 nodes, got %d", g.N)
	case g.Days < 1:
		return fmt.Errorf("mobility: need at least 1 day, got %d", g.Days)
	case g.Offices < 1 || g.Offices > g.N:
		return fmt.Errorf("mobility: %d offices for %d nodes", g.Offices, g.N)
	case g.OfficeRate <= 0:
		return fmt.Errorf("mobility: non-positive office rate %v", g.OfficeRate)
	case g.WorkStart < 0 || g.WorkEnd <= g.WorkStart || g.WorkEnd > Day:
		return fmt.Errorf("mobility: bad office hours [%v,%v]", g.WorkStart, g.WorkEnd)
	case g.Jitter < 0 || g.Jitter >= (g.WorkEnd-g.WorkStart)/2:
		return fmt.Errorf("mobility: jitter %v too large for office hours", g.Jitter)
	case g.EveningVenues < 0:
		return fmt.Errorf("mobility: negative venue count %d", g.EveningVenues)
	case g.EveningVenues > 0 && (g.EveningProb <= 0 || g.EveningProb > 1):
		return fmt.Errorf("mobility: evening probability %v outside (0,1]", g.EveningProb)
	case g.EveningVenues > 0 && (g.EveningStart < g.WorkEnd || g.EveningStart+g.EveningLen > Day):
		return fmt.Errorf("mobility: evening window [%v,%v) outside the day", g.EveningStart, g.EveningStart+g.EveningLen)
	case g.EveningVenues > 0 && g.EveningRate <= 0:
		return fmt.Errorf("mobility: non-positive evening rate %v", g.EveningRate)
	case g.MeanContactDur <= 0:
		return fmt.Errorf("mobility: non-positive contact duration %v", g.MeanContactDur)
	}
	return nil
}

// presence is one node's attendance interval at a place.
type presence struct {
	node       trace.NodeID
	from, till float64
}

// Generate implements Generator.
func (g *WorkingDay) Generate(seed int64) (*trace.Trace, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	rng := stats.Derive(seed, "mobility/workingday/"+g.TraceName)

	office := make([]int, g.N)
	for i := range office {
		office[i] = i % g.Offices
	}
	rng.Shuffle(g.N, func(i, j int) { office[i], office[j] = office[j], office[i] })

	t := &trace.Trace{Name: g.TraceName, N: g.N, Duration: float64(g.Days) * Day}
	for day := 0; day < g.Days; day++ {
		base := float64(day) * Day

		// Office attendance per workplace.
		byOffice := make([][]presence, g.Offices)
		for n := 0; n < g.N; n++ {
			arrive := base + g.WorkStart + jitter(rng, g.Jitter)
			depart := base + g.WorkEnd + jitter(rng, g.Jitter)
			if depart <= arrive {
				continue
			}
			byOffice[office[n]] = append(byOffice[office[n]], presence{trace.NodeID(n), arrive, depart})
		}
		for _, ps := range byOffice {
			g.meet(rng, ps, g.OfficeRate, &t.Contacts)
		}

		// Evening venues mix across offices.
		if g.EveningVenues > 0 {
			byVenue := make([][]presence, g.EveningVenues)
			for n := 0; n < g.N; n++ {
				if rng.Float64() >= g.EveningProb {
					continue
				}
				v := rng.Intn(g.EveningVenues)
				from := base + g.EveningStart + jitter(rng, g.Jitter)
				till := from + g.EveningLen
				if till > base+Day {
					till = base + Day
				}
				if till > from {
					byVenue[v] = append(byVenue[v], presence{trace.NodeID(n), from, till})
				}
			}
			for _, ps := range byVenue {
				g.meet(rng, ps, g.EveningRate, &t.Contacts)
			}
		}
	}
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: generated invalid trace: %w", err)
	}
	return t, nil
}

// meet emits Poisson contacts for every co-present pair at one place.
func (g *WorkingDay) meet(rng *rand.Rand, ps []presence, rate float64, out *[]trace.Contact) {
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			from := ps[i].from
			if ps[j].from > from {
				from = ps[j].from
			}
			till := ps[i].till
			if ps[j].till < till {
				till = ps[j].till
			}
			if till <= from {
				continue
			}
			at := from + stats.Exp(rng, rate)
			for at < till {
				end := at + stats.Exp(rng, 1/g.MeanContactDur)
				if end < at+1 {
					end = at + 1
				}
				if end > till {
					end = till
				}
				if end > at {
					*out = append(*out, trace.Contact{A: ps[i].node, B: ps[j].node, Start: at, End: end})
				}
				at = end + stats.Exp(rng, rate)
			}
		}
	}
}

func jitter(rng *rand.Rand, j float64) float64 {
	if j == 0 {
		return 0
	}
	return (rng.Float64()*2 - 1) * j
}
