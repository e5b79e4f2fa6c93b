package network

import (
	"testing"

	"freshcache/internal/eventsim"
	"freshcache/internal/trace"
)

func testTrace() *trace.Trace {
	return &trace.Trace{
		Name: "t", N: 3, Duration: 100,
		Contacts: []trace.Contact{
			{A: 0, B: 1, Start: 10, End: 20},
			{A: 1, B: 2, Start: 30, End: 31},
			{A: 0, B: 2, Start: 40, End: 45},
		},
	}
}

func TestDispatchOrderAndFields(t *testing.T) {
	sim := eventsim.New()
	net, err := New(sim, testTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []Contact
	net.Attach(HandlerFunc(func(c *Contact) { seen = append(seen, *c) }))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("dispatched %d contacts, want 3", len(seen))
	}
	if seen[0].Time != 10 || seen[0].A != 0 || seen[0].B != 1 || seen[0].Duration != 10 {
		t.Fatalf("first contact = %+v", seen[0])
	}
	if seen[1].Time != 30 || seen[2].Time != 40 {
		t.Fatalf("contact order wrong: %v, %v", seen[1].Time, seen[2].Time)
	}
	if net.ContactsDispatched() != 3 {
		t.Fatalf("ContactsDispatched = %d", net.ContactsDispatched())
	}
}

func TestMultipleHandlersRunInOrder(t *testing.T) {
	sim := eventsim.New()
	net, err := New(sim, testTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	net.Attach(HandlerFunc(func(*Contact) { order = append(order, "a") }))
	net.Attach(HandlerFunc(func(*Contact) { order = append(order, "b") }))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("handler order: %v", order)
	}
}

func TestSendAccounting(t *testing.T) {
	sim := eventsim.New()
	net, err := New(sim, testTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	net.Attach(HandlerFunc(func(c *Contact) {
		if !c.Send(c.A, c.B, "refresh") {
			t.Error("unlimited send failed")
		}
		if !c.Send(c.B, c.A, "query") {
			t.Error("reverse send failed")
		}
	}))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := net.Transmissions("refresh"); got != 3 {
		t.Fatalf("refresh transmissions = %d, want 3", got)
	}
	if got := net.Transmissions("query"); got != 3 {
		t.Fatalf("query transmissions = %d, want 3", got)
	}
	if net.TotalTransmissions() != 6 {
		t.Fatalf("total = %d, want 6", net.TotalTransmissions())
	}
	kinds := net.TransmissionKinds()
	if len(kinds) != 2 || kinds[0] != "query" || kinds[1] != "refresh" {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestSentBy: refresh and relay sends count toward the sender's load;
// data and query sends, the access path's, do not. Nodes that never sent
// and IDs outside the trace read 0.
func TestSentBy(t *testing.T) {
	sim := eventsim.New()
	net, err := New(sim, testTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	net.Attach(HandlerFunc(func(c *Contact) {
		c.Send(c.A, c.B, "refresh")
		c.Send(c.A, c.B, "relay")
		c.Send(c.B, c.A, "data")
		c.Send(c.B, c.A, "query")
		if c.A == 0 {
			c.Send(c.B, c.A, "relay")
		}
	}))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Contacts (0,1), (1,2) and (0,2): A sends two each; B sends one
	// relay back when A is node 0.
	for node, want := range map[trace.NodeID]int{0: 4, 1: 3, 2: 1, 3: 0, -1: 0} {
		if got := net.SentBy(node); got != want {
			t.Errorf("SentBy(%d) = %d, want %d", node, got, want)
		}
	}
}

func TestSendOutsideContactPanics(t *testing.T) {
	sim := eventsim.New()
	tr := testTrace()
	tr.Contacts = tr.Contacts[:1] // single (0,1) contact
	net, err := New(sim, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	panicked := false
	net.Attach(HandlerFunc(func(c *Contact) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		c.Send(0, 2, "x") // node 2 is not an endpoint of this contact
	}))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("Send between non-endpoints did not panic")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(nil, testTrace(), Config{}); err == nil {
		t.Fatal("nil sim accepted")
	}
	bad := testTrace()
	bad.N = 0
	if _, err := New(eventsim.New(), bad, Config{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestAttachNilPanics(t *testing.T) {
	sim := eventsim.New()
	net, err := New(sim, testTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	net.Attach(nil)
}

func TestHorizonCutsDispatch(t *testing.T) {
	sim := eventsim.New()
	net, err := New(sim, testTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	net.Attach(HandlerFunc(func(*Contact) { count++ }))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(35); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("dispatched %d before t=35, want 2", count)
	}
}
