package obs

// Kind identifies the type of a trace event. The set mirrors the
// simulator's observable actions: contact dynamics, refresh scheduling and
// delivery, replication planning, query resolution, and duty churn.
type Kind uint8

const (
	KindUnknown Kind = iota
	// KindContactBegin marks the dispatch of a contact between nodes A and
	// B at time T; Val carries the contact duration in seconds.
	KindContactBegin
	// KindContactEnd marks the end of that contact (T = begin + duration).
	KindContactEnd
	// KindGenerate marks the data source generating a new version Ver of
	// item Item.
	KindGenerate
	// KindRefreshScheduled marks a responsible node A committing to a
	// replication plan for item Item; Val carries the number of
	// destinations planned.
	KindRefreshScheduled
	// KindRefreshDelivered marks a fresh copy of Item version Ver arriving
	// at caching node B; Val carries the delivery delay in seconds since
	// generation. A is always -1: the delivery span names the giver.
	KindRefreshDelivered
	// KindReplicationPlanned marks planner output: node A is tasked to
	// carry Item toward destination B; Val carries the achieved delivery
	// probability.
	KindReplicationPlanned
	// KindRelayHandoff marks carrier A handing a copy of Item version Ver
	// to carrier B without reaching a cache: a responsible node's handoff
	// to a planned relay, an epidemic carry or a spray token split.
	KindRelayHandoff
	// KindDutyReassigned marks node A taking responsibility for Item after
	// a rebuild (Ver is unused).
	KindDutyReassigned
	// KindQueryIssued marks node A issuing a query for Item.
	KindQueryIssued
	// KindCacheHit marks node A's query for Item being served a valid copy
	// (version Ver) by node B; Val carries the age of the served copy.
	KindCacheHit
	// KindCacheMiss marks node A's query for Item expiring unserved or
	// served stale.
	KindCacheMiss
	kindCount
)

var kindNames = [kindCount]string{
	KindUnknown:            "unknown",
	KindContactBegin:       "contact_begin",
	KindContactEnd:         "contact_end",
	KindGenerate:           "generate",
	KindRefreshScheduled:   "refresh_scheduled",
	KindRefreshDelivered:   "refresh_delivered",
	KindReplicationPlanned: "replication_planned",
	KindRelayHandoff:       "relay_handoff",
	KindDutyReassigned:     "duty_reassigned",
	KindQueryIssued:        "query_issued",
	KindCacheHit:           "cache_hit",
	KindCacheMiss:          "cache_miss",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured trace record. Fields that do not apply to a
// given kind are set to -1 (nodes, item, version) or 0 (value); T is
// simulation time in seconds.
type Event struct {
	T    float64
	Kind Kind
	A    int32 // primary node (actor), -1 if absent
	B    int32 // secondary node (peer/destination), -1 if absent
	Item int32 // item id, -1 if absent
	Ver  int32 // item version, -1 if absent
	Val  float64
}
