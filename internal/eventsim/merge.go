package eventsim

// MergeRuns merges runs of events that are each already in time order
// into one timeline for AttachTimeline. events holds the runs back to
// back, each sorted by non-decreasing Time, and ends[i] is the offset in
// events where run i ends, so run i is events[ends[i-1]:ends[i]] and the
// last end is len(events); a run may be empty. On equal times the earlier
// run comes first, and within a run the earlier event, so the result is
// exactly the order a stable sort of events by Time gives.
//
// Adjacent runs are merged pairwise, one pass over the events per
// halving of the run count, alternating between events and buf; buf is
// grown to len(events) when it is shorter and there is anything to
// merge. The merged timeline lives in the storage of one of the two, and
// the other is returned as spare, so a caller can keep both for its next
// merge. ends is overwritten.
func MergeRuns(events, buf []StaticEvent, ends []int) (merged, spare []StaticEvent) {
	if len(ends) <= 1 {
		return events, buf
	}
	if cap(buf) < len(events) {
		buf = make([]StaticEvent, len(events))
	}
	buf = buf[:len(events)]
	for len(ends) > 1 {
		start, w := 0, 0
		for i := 0; i < len(ends); i += 2 {
			end := ends[i]
			if i+1 < len(ends) {
				end = ends[i+1]
				mergeTwo(buf[start:end], events[start:ends[i]], events[ends[i]:end])
			} else {
				copy(buf[start:end], events[start:end])
			}
			ends[w] = end
			start = end
			w++
		}
		ends = ends[:w]
		events, buf = buf, events
	}
	return events, buf
}

// mergeTwo merges the sorted runs a and b into dst, which has room for
// both; on equal times a's event comes first.
func mergeTwo(dst, a, b []StaticEvent) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Time < a[i].Time {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
