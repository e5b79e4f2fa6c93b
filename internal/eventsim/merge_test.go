package eventsim

import (
	"cmp"
	"slices"
	"testing"
)

// decodeRuns turns fuzz bytes into back-to-back sorted runs and their end
// offsets. Per byte b: b%5 == 0 closes the current run (so repeated zeros
// make empty runs); otherwise an event at time (b/5)%4, clamped to the
// run's last time, joins the current run. Times live in 0..3, so events
// tie heavily within and across runs. Arg is the event's position, which
// identifies it in the merged order.
func decodeRuns(data []byte) (events []StaticEvent, ends []int) {
	for _, b := range data {
		if b%5 == 0 {
			ends = append(ends, len(events))
			continue
		}
		tm := float64((b / 5) % 4)
		if n := len(events); n > 0 && (len(ends) == 0 || ends[len(ends)-1] < n) && tm < events[n-1].Time {
			tm = events[n-1].Time
		}
		events = append(events, StaticEvent{Time: tm, Arg: int32(len(events))})
	}
	return events, append(ends, len(events))
}

func TestMergeRunsKeepsRunOrderOnTies(t *testing.T) {
	events := []StaticEvent{
		{Time: 1, Arg: 0}, {Time: 3, Arg: 1}, // run 0
		{Time: 0, Arg: 2}, {Time: 1, Arg: 3}, {Time: 3, Arg: 4}, // run 1
		// run 2 is empty
		{Time: 1, Arg: 5}, // run 3
	}
	merged, _ := MergeRuns(events, nil, []int{2, 5, 5, 6})
	var got []int32
	for _, ev := range merged {
		got = append(got, ev.Arg)
	}
	if want := []int32{2, 0, 3, 5, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("merged order %v, want %v", got, want)
	}
}

// FuzzMergeRuns holds MergeRuns to the stable sort by time, on runs with
// heavy ties and empty runs, and checks that a second merge over the
// returned buffers gives the same timeline again.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 6, 11, 0, 1, 6, 0, 0, 16, 1})
	f.Add([]byte{6, 6, 6, 0, 6, 6, 0, 6, 0, 6, 6, 6, 6})
	f.Add([]byte{16, 11, 6, 1, 0, 1, 1, 0, 0, 0, 16, 0, 11, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, ends := decodeRuns(data)
		want := slices.Clone(events)
		slices.SortStableFunc(want, func(a, b StaticEvent) int { return cmp.Compare(a.Time, b.Time) })

		merged, spare := MergeRuns(slices.Clone(events), nil, slices.Clone(ends))
		if !slices.Equal(merged, want) {
			t.Fatalf("runs %v ending at %v merged to\n%v\nwant the stable sort\n%v", events, ends, merged, want)
		}
		// Recycled buffers, as a reused engine hands them back.
		again, _ := MergeRuns(append(merged[:0], events...), spare, slices.Clone(ends))
		if !slices.Equal(again, want) {
			t.Fatalf("second merge over recycled buffers gave\n%v\nwant\n%v", again, want)
		}
	})
}
