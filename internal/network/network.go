// Package network is the opportunistic network layer: it replays a
// contact trace through the discrete-event engine, dispatches each contact
// to the registered protocol handlers, injects message loss and node
// churn, and accounts for every transmission — the overhead metric of the
// evaluation.
//
// The layer is deliberately thin: protocols own their node state (caches,
// relay buffers, pending-refresh sets); the network owns only connectivity
// and cost.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"freshcache/internal/eventsim"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Handler is a protocol attached to the network. OnContact is invoked once
// per contact, at the contact's start time; both directions of exchange
// happen inside the single callback via Contact.Send. The *Contact is
// valid only for the duration of the callback — the network reuses the
// struct for the next contact, so handlers must not retain the pointer.
type Handler interface {
	OnContact(c *Contact)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(c *Contact)

// OnContact implements Handler.
func (f HandlerFunc) OnContact(c *Contact) { f(c) }

var _ Handler = HandlerFunc(nil)

// Contact is the live view of one pairwise contact passed to handlers.
type Contact struct {
	A, B     trace.NodeID
	Time     float64
	Duration float64

	net *Net
}

// Send transfers one protocol message from one endpoint of the contact to
// the other, recording overhead under the given kind ("refresh", "relay",
// "query", ...). It reports false — and records nothing — when message
// loss drops the transmission.
func (c *Contact) Send(from, to trace.NodeID, kind string) bool {
	if (from != c.A || to != c.B) && (from != c.B || to != c.A) {
		panic(fmt.Sprintf("network: Send(%d→%d) outside contact (%d,%d)", from, to, c.A, c.B))
	}
	if c.net.lossRNG != nil && c.net.lossRNG.Float64() < c.net.cfg.DropProb {
		// The transmission happened but was lost in the air; the
		// receiver gets nothing.
		c.net.lost++
		return false
	}
	c.net.countSend(kind)
	if kind != "data" && kind != "query" {
		// Query/data traffic is access-path cost, not refresh load.
		c.net.sentBy[from]++
	}
	return true
}

// Config configures a Net.
type Config struct {
	// DropProb makes each transmission independently fail with this
	// probability (radio loss, collisions). A dropped send delivers
	// nothing.
	DropProb float64
	// Churn turns nodes off and on; contacts involving a down node are
	// suppressed.
	Churn ChurnConfig
	// Seed drives the failure-injection randomness (loss, churn
	// schedules). Ignored when neither is enabled.
	Seed int64
}

// Net replays a trace and dispatches contacts.
type Net struct {
	sim      *eventsim.Simulator
	tr       *trace.Trace
	cfg      Config
	handlers []Handler

	// kinds lists the transmission kinds in first-send order and sends
	// counts each one's sends: a handful of kinds, scanned linearly, cost
	// less per send than hashing the kind into a map.
	kinds              []string
	sends              []int
	totalTransmissions int
	lost               int
	contactsDispatched int
	contactsSuppressed int
	sentBy             []int // refresh/relay sends, indexed by node ID

	lossRNG *rand.Rand    // non-nil when DropProb > 0
	avail   *availability // non-nil when churn is enabled

	// live is the scratch Contact reused across dispatches. Handlers run
	// synchronously and must not retain the pointer (see Handler), so one
	// struct per Net replaces the per-contact allocation that used to
	// dominate trace replay.
	live Contact
}

// New creates a network over the given trace, driven by sim. The trace
// must validate.
func New(sim *eventsim.Simulator, tr *trace.Trace, cfg Config) (*Net, error) {
	if sim == nil {
		return nil, errors.New("network: nil simulator")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	// Written so that NaN, which fails every comparison, fails the test.
	if !(cfg.DropProb >= 0 && cfg.DropProb < 1) {
		return nil, fmt.Errorf("network: drop probability %v outside [0,1)", cfg.DropProb)
	}
	if err := cfg.Churn.validate(); err != nil {
		return nil, err
	}
	n := &Net{
		sim: sim,
		tr:  tr,
		cfg: cfg,
		// Room for the four kinds the schemes send: refresh, relay,
		// query and data.
		kinds:  make([]string, 0, 4),
		sends:  make([]int, 0, 4),
		sentBy: make([]int, tr.N),
	}
	if cfg.DropProb > 0 {
		n.lossRNG = stats.Derive(cfg.Seed, "network/loss")
	}
	if cfg.Churn.Enabled() {
		n.avail = buildAvailability(cfg.Churn, tr.N, tr.Duration, cfg.Seed)
	}
	return n, nil
}

// Attach registers a protocol handler. Handlers run in attach order on
// every contact.
func (n *Net) Attach(h Handler) {
	if h == nil {
		panic("network: nil handler")
	}
	n.handlers = append(n.handlers, h)
}

// CompileTimeline compiles a trace's contacts into the timeline the
// simulator replays: one entry per contact in start order, with Arg =
// contact index. The result is immutable and may be shared read-only
// across any number of Nets replaying the same trace (the sweep's
// TraceCache compiles once per trace and shares it across replicates and
// cells).
func CompileTimeline(tr *trace.Trace) []eventsim.StaticEvent {
	tl := make([]eventsim.StaticEvent, len(tr.Contacts))
	for i := range tr.Contacts {
		tl[i] = eventsim.StaticEvent{Time: tr.Contacts[i].Start, Arg: int32(i)}
	}
	return tl
}

// ScheduleCompiled attaches the contact timeline to the simulator: tl
// comes from CompileTimeline on this Net's trace, and nil compiles one on
// the fly. Call once, before running the simulator; callers replaying the
// same trace many times compile once. Contacts are sorted by start time
// (trace.Validate), so the timeline is sorted and replays by cursor, with
// no per-contact closures.
func (n *Net) ScheduleCompiled(tl []eventsim.StaticEvent) error {
	if tl == nil {
		tl = CompileTimeline(n.tr)
	}
	if len(tl) != len(n.tr.Contacts) {
		return fmt.Errorf("network: timeline has %d events, trace has %d contacts", len(tl), len(n.tr.Contacts))
	}
	if err := n.sim.AttachTimeline(tl, n.dispatchStatic); err != nil {
		return fmt.Errorf("network: schedule contacts: %w", err)
	}
	return nil
}

// dispatchStatic is the timeline dispatch target: Arg is the contact
// index assigned by CompileTimeline.
func (n *Net) dispatchStatic(arg int32, now float64) {
	n.dispatch(n.tr.Contacts[arg], now)
}

func (n *Net) dispatch(c trace.Contact, now float64) {
	if n.avail != nil && (!n.avail.isUp(c.A, now) || !n.avail.isUp(c.B, now)) {
		n.contactsSuppressed++
		return
	}
	n.live = Contact{A: c.A, B: c.B, Time: now, Duration: c.Duration(), net: n}
	n.contactsDispatched++
	for _, h := range n.handlers {
		h.OnContact(&n.live)
	}
}

// ManualContact creates a live contact outside trace replay, with the
// same loss and accounting as dispatched contacts. It does not invoke
// handlers. Intended for custom drivers and protocol unit tests.
func (n *Net) ManualContact(a, b trace.NodeID, at, duration float64) *Contact {
	return &Contact{A: a, B: b, Time: at, Duration: duration, net: n}
}

// countSend counts one successful send of the given kind.
func (n *Net) countSend(kind string) {
	i := slices.Index(n.kinds, kind)
	if i < 0 {
		i = len(n.kinds)
		n.kinds = append(n.kinds, kind)
		n.sends = append(n.sends, 0)
	}
	n.sends[i]++
	n.totalTransmissions++
}

// Transmissions returns the transmission count recorded under kind.
func (n *Net) Transmissions(kind string) int {
	if i := slices.Index(n.kinds, kind); i >= 0 {
		return n.sends[i]
	}
	return 0
}

// SentBy reports how many refresh-related transmissions ("refresh" and
// "relay" kinds; access-path "data"/"query" traffic excluded) the node
// originated — the per-node refreshing load, used to show how the
// hierarchy distributes work away from the data sources. A node that
// never sent, or is outside the trace, reports 0.
func (n *Net) SentBy(node trace.NodeID) int {
	if node < 0 || int(node) >= len(n.sentBy) {
		return 0
	}
	return n.sentBy[node]
}

// TotalTransmissions returns the total transmissions across all kinds.
func (n *Net) TotalTransmissions() int { return n.totalTransmissions }

// Lost reports how many transmissions were dropped by message loss.
func (n *Net) Lost() int { return n.lost }

// ContactsSuppressed reports how many contacts were suppressed because an
// endpoint was down (churn).
func (n *Net) ContactsSuppressed() int { return n.contactsSuppressed }

// ContactsDispatched reports how many contacts have fired so far.
func (n *Net) ContactsDispatched() int { return n.contactsDispatched }

// TransmissionKinds returns the recorded kinds in sorted order, for
// stable reporting.
func (n *Net) TransmissionKinds() []string {
	kinds := slices.Clone(n.kinds)
	slices.Sort(kinds)
	return kinds
}
