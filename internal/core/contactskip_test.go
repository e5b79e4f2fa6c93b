package core

import (
	"reflect"
	"testing"

	"freshcache/internal/cache"
	"freshcache/internal/metrics"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// The refresh schemes declare Runtime.ActsOnlyAtServers, so without query
// delegation the engine skips OnContact, query resolution and delegation
// on every contact with no caching node or item source at either end. The
// differential check below runs each refresh scheme on a random scenario
// twice: with the declaration, and through a wrapper that withdraws it, so
// that every post-epoch contact reaches the scheme. Every output must be
// equal.
//
// Loss is off. Under loss the skip is not exact (ROADMAP 14d): actAsRelay
// drops drained relay entries only when its walk over the buffer
// completes, and a lost send aborts the walk. With the skip, that cleanup
// waits for the relay's next contact with a caching node or a source, not
// its next contact with any node, and in between giveToRelay can reuse the
// drained entry instead of sending, which shifts the loss stream. At zero
// loss every walk completes. Churn, distributed knowledge, rebuilds and
// delegation stay as the scenario draws them.

// contactLog wraps a refresh scheme, Rebuild and SchemeStats included,
// and logs the contacts OnContact receives. With withdraw set, its Init
// withdraws the scheme's ActsOnlyAtServers declaration.
type contactLog struct {
	*refreshScheme
	withdraw bool
	got      []seenContact
}

// seenContact is a contact without its network, which differs between
// runs.
type seenContact struct {
	a, b      trace.NodeID
	time, dur float64
}

func (s *contactLog) Init(rt *Runtime) error {
	err := s.refreshScheme.Init(rt)
	if s.withdraw {
		rt.serversOnly = false
	}
	return err
}

func (s *contactLog) OnContact(c *network.Contact) {
	s.got = append(s.got, seenContact{c.A, c.B, c.Time, c.Duration})
	s.refreshScheme.OnContact(c)
}

// refreshSchemeConstructors returns every scheme built on refreshScheme:
// the refresh schemes of Schemes() and hierarchical-bare.
func refreshSchemeConstructors() []func() Scheme {
	var out []func() Scheme
	for _, spec := range Schemes() {
		if _, ok := spec.New().(*refreshScheme); ok {
			out = append(out, spec.New)
		}
	}
	return append(out, NewHierarchicalBare)
}

// loggedRun is what one run of checkContactSkip produced.
type loggedRun struct {
	res        metrics.Result
	deliveries []metrics.Delivery
	queries    []*cache.Query
	events     []obs.Event
	spans      []obs.Span
	contacts   int // the engine/contacts counter
	got        []seenContact
	canServe   []bool
}

func runLogged(t *testing.T, cfg Config, s Scheme, withdraw bool) loggedRun {
	t.Helper()
	log := &contactLog{refreshScheme: s.(*refreshScheme), withdraw: withdraw}
	cfg.Scheme = log
	cfg.Recording = obs.Recording{
		Trace:   obs.NewRunTrace("skip", 1, 1<<14),
		Metrics: obs.NewRegistry(),
		Lineage: obs.NewLineage("skip", s.Name(), 0),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if cfg.Recording.Trace.Dropped() != 0 || cfg.Recording.Lineage.Dropped() != 0 {
		t.Fatalf("%s: recordings dropped events or spans; size them up", s.Name())
	}
	res.WallClockSeconds = 0
	return loggedRun{
		res:        res,
		deliveries: eng.Collector().Deliveries(),
		queries:    eng.book.All(),
		events:     cfg.Recording.Trace.Events(),
		spans:      cfg.Recording.Lineage.Spans(),
		contacts:   int(cfg.Recording.Metrics.Snapshot().Counters["engine/contacts"]),
		got:        log.got,
		canServe:   eng.canServe,
	}
}

// checkContactSkip runs every refresh scheme on the seed's scenario, at
// zero loss, with and without the declaration, and requires equal outputs
// and the contact filter the declaration promises. It returns how many
// contacts the declaration kept from the schemes.
func checkContactSkip(t *testing.T, seed int64) (skipped int) {
	t.Helper()
	sc, err := randomScenario(seed)
	if err != nil {
		return 0 // a degenerate trace, not an engine failure
	}
	cfg := sc.cfg
	cfg.DropProb = 0
	for _, newScheme := range refreshSchemeConstructors() {
		all := runLogged(t, cfg, newScheme(), true)
		skip := runLogged(t, cfg, newScheme(), false)
		name := all.res.Scheme
		if len(all.got) != all.contacts {
			t.Fatalf("seed %d (%s): without the declaration OnContact got %d contacts, engine/contacts counted %d",
				seed, name, len(all.got), all.contacts)
		}
		var want []seenContact
		for _, c := range all.got {
			if cfg.QueryRelays > 0 || all.canServe[c.a] || all.canServe[c.b] {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(skip.got, want) {
			t.Fatalf("seed %d (%s, %d query relays): OnContact got %d of %d contacts, want the %d with a caching node or source at one end",
				seed, name, cfg.QueryRelays, len(skip.got), len(all.got), len(want))
		}
		for _, out := range []struct {
			what      string
			all, skip any
		}{
			{"result", all.res, skip.res},
			{"deliveries", all.deliveries, skip.deliveries},
			{"query log", all.queries, skip.queries},
			{"events", all.events, skip.events},
			{"spans", all.spans, skip.spans},
		} {
			if !reflect.DeepEqual(out.all, out.skip) {
				t.Fatalf("seed %d (%s): skipping contacts no server is at moved the %s", seed, name, out.what)
			}
		}
		skipped += len(all.got) - len(skip.got)
	}
	return skipped
}

func TestContactSkipChangesNothing(t *testing.T) {
	skipped := 0
	for seed := int64(1); seed <= 100; seed++ {
		skipped += checkContactSkip(t, seed)
	}
	if skipped == 0 {
		t.Fatal("no scenario skipped a contact, so the comparison shows nothing")
	}
	t.Logf("%d contacts skipped", skipped)
}

func FuzzContactSkip(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 997, 1994} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkContactSkip(t, seed) })
}
