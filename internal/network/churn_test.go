package network

import (
	"math"
	"testing"

	"freshcache/internal/eventsim"
	"freshcache/internal/trace"
)

func TestChurnConfigValidate(t *testing.T) {
	if (ChurnConfig{}).Enabled() {
		t.Fatal("zero churn enabled")
	}
	if err := (ChurnConfig{MeanUp: 100, MeanDown: 10}).validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ChurnConfig{MeanUp: 100}).validate(); err == nil {
		t.Fatal("half-configured churn accepted")
	}
	if _, err := New(eventsim.New(), testTrace(), Config{Churn: ChurnConfig{MeanUp: -1, MeanDown: 5}}); err == nil {
		t.Fatal("negative churn accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []ChurnConfig{{MeanUp: v, MeanDown: 5}, {MeanUp: 100, MeanDown: v}, {MeanUp: v, MeanDown: v}} {
			if err := c.validate(); err == nil {
				t.Errorf("churn %+v accepted", c)
			}
		}
	}
}

func TestAvailabilityAlternates(t *testing.T) {
	av := buildAvailability(ChurnConfig{MeanUp: 100, MeanDown: 50}, 3, 10000, 1)
	for node := trace.NodeID(0); node < 3; node++ {
		ts := av.toggles[node]
		if len(ts) == 0 {
			t.Fatalf("node %d never toggles over 10000s with mean period 150s", node)
		}
		if !av.isUp(node, 0) {
			t.Fatalf("node %d not up at t=0", node)
		}
		// Just after toggle k the state is down for even k, up for odd.
		for k, tt := range ts {
			up := av.isUp(node, tt+1e-9)
			if k%2 == 0 && up {
				t.Fatalf("node %d up right after down-toggle %d", node, k)
			}
			if k%2 == 1 && !up {
				t.Fatalf("node %d down right after up-toggle %d", node, k)
			}
		}
	}
}

func TestAvailabilityDutyCycle(t *testing.T) {
	const meanUp, meanDown, horizon = 200.0, 100.0, 500000.0
	av := buildAvailability(ChurnConfig{MeanUp: meanUp, MeanDown: meanDown}, 1, horizon, 7)
	up := 0
	const samples = 50000
	for i := 0; i < samples; i++ {
		if av.isUp(0, horizon*float64(i)/samples) {
			up++
		}
	}
	got := float64(up) / samples
	want := meanUp / (meanUp + meanDown)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("duty cycle = %v, want ~%v", got, want)
	}
}

func TestChurnSuppressesContacts(t *testing.T) {
	// Aggressive churn: nodes mostly down.
	sim := eventsim.New()
	tr := &trace.Trace{Name: "many", N: 2, Duration: 100000}
	for i := 0; i < 1000; i++ {
		at := float64(i) * 100
		tr.Contacts = append(tr.Contacts, trace.Contact{A: 0, B: 1, Start: at, End: at + 10})
	}
	net, err := New(sim, tr, Config{Churn: ChurnConfig{MeanUp: 100, MeanDown: 900}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	net.Attach(HandlerFunc(func(*Contact) { fired++ }))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1e9); err != nil {
		t.Fatal(err)
	}
	if fired+net.ContactsSuppressed() != 1000 {
		t.Fatalf("fired %d + suppressed %d != 1000", fired, net.ContactsSuppressed())
	}
	// ~1% duty cycle squared pairs up: expect only a few percent firing.
	if fired > 150 {
		t.Fatalf("churn barely suppressed: %d/1000 fired", fired)
	}
	if fired == 0 {
		t.Fatal("churn suppressed everything; duty cycle too harsh for test")
	}
}

func TestChurnDeterministic(t *testing.T) {
	a := buildAvailability(ChurnConfig{MeanUp: 50, MeanDown: 50}, 4, 10000, 9)
	b := buildAvailability(ChurnConfig{MeanUp: 50, MeanDown: 50}, 4, 10000, 9)
	for n := range a.toggles {
		if len(a.toggles[n]) != len(b.toggles[n]) {
			t.Fatal("nondeterministic churn schedule")
		}
		for i := range a.toggles[n] {
			if a.toggles[n][i] != b.toggles[n][i] {
				t.Fatal("nondeterministic churn schedule")
			}
		}
	}
}

func TestMessageLoss(t *testing.T) {
	sim := eventsim.New()
	tr := &trace.Trace{Name: "many", N: 2, Duration: 100000}
	for i := 0; i < 2000; i++ {
		at := float64(i) * 50
		tr.Contacts = append(tr.Contacts, trace.Contact{A: 0, B: 1, Start: at, End: at + 10})
	}
	net, err := New(sim, tr, Config{DropProb: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	net.Attach(HandlerFunc(func(c *Contact) {
		if c.Send(c.A, c.B, "refresh") {
			delivered++
		}
	}))
	if err := net.ScheduleCompiled(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1e9); err != nil {
		t.Fatal(err)
	}
	if delivered+net.Lost() != 2000 {
		t.Fatalf("delivered %d + lost %d != 2000", delivered, net.Lost())
	}
	lossRate := float64(net.Lost()) / 2000
	if math.Abs(lossRate-0.3) > 0.05 {
		t.Fatalf("loss rate = %v, want ~0.3", lossRate)
	}
	// Lost sends must not be counted as transmissions.
	if net.TotalTransmissions() != delivered {
		t.Fatalf("transmissions %d != delivered %d", net.TotalTransmissions(), delivered)
	}
}

func TestDropProbValidation(t *testing.T) {
	if _, err := New(eventsim.New(), testTrace(), Config{DropProb: -0.1}); err == nil {
		t.Fatal("negative drop prob accepted")
	}
	if _, err := New(eventsim.New(), testTrace(), Config{DropProb: 1}); err == nil {
		t.Fatal("certain loss accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(eventsim.New(), testTrace(), Config{DropProb: v}); err == nil {
			t.Errorf("drop probability %v accepted", v)
		}
	}
}
