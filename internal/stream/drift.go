package stream

import (
	"ltefp/internal/appmodel"
)

// appTable maps app names to dense vote indices in appmodel table order,
// so the rolling vote's tie-break matches the batch path's
// PredictVectors (first app in table order wins ties).
type appTable struct {
	names []string
	index map[string]int
}

func newAppTable() *appTable {
	apps := appmodel.Apps()
	t := &appTable{
		names: make([]string, len(apps)),
		index: make(map[string]int, len(apps)),
	}
	for i, a := range apps {
		t.names[i] = a.Name
		t.index[a.Name] = i
	}
	return t
}

// voteRing is one user's rolling window vote: a fixed-capacity ring of
// per-window predictions with running per-app counts, so the majority is
// O(apps) per read and O(1) per push.
type voteRing struct {
	slots  []int16
	counts []int32
	pos    int
	fill   int
}

// ringSlab carves userVote entries and their ring storage out of block
// allocations: one userVote array plus one slots and one counts backing
// array per ringSlabUsers new users, instead of four heap objects per
// user. Entries are never returned — a user's vote state lives for the
// whole Run — so the slab only ever moves forward.
type ringSlab struct {
	horizon, apps int
	users         []userVote
	slots         []int16
	counts        []int32
}

const ringSlabUsers = 32

// get hands out one zeroed userVote with its ring storage attached.
func (s *ringSlab) get() *userVote {
	if len(s.users) == 0 {
		s.users = make([]userVote, ringSlabUsers)
		s.slots = make([]int16, ringSlabUsers*s.horizon)
		s.counts = make([]int32, ringSlabUsers*s.apps)
	}
	u := &s.users[0]
	s.users = s.users[1:]
	u.ring = voteRing{
		slots:  s.slots[:s.horizon:s.horizon],
		counts: s.counts[:s.apps:s.apps],
	}
	s.slots = s.slots[s.horizon:]
	s.counts = s.counts[s.apps:]
	return u
}

// push adds one window's predicted app, evicting the oldest when full.
func (v *voteRing) push(app int) {
	if v.fill == len(v.slots) {
		v.counts[v.slots[v.pos]]--
	} else {
		v.fill++
	}
	v.slots[v.pos] = int16(app)
	v.counts[app]++
	v.pos++
	if v.pos == len(v.slots) {
		v.pos = 0
	}
}

// majority returns the winning app index and its confidence (fraction of
// the filled ring). Ties break to the lower index — appmodel table order,
// matching the batch majority vote.
func (v *voteRing) majority() (app int, confidence float64) {
	if v.fill == 0 {
		return 0, 0
	}
	best := -1
	var bestN int32 = -1
	for i, n := range v.counts {
		if n > bestN {
			bestN = n
			best = i
		}
	}
	return best, float64(bestN) / float64(v.fill)
}

// driftMonitor latches the paper's retrain condition per user: rolling
// confidence below the threshold over at least driftMinWindows windows.
// It fires once per excursion — re-arming only after confidence recovers
// — so a struggling user does not flood the retrain queue.
type driftMonitor struct {
	threshold float64
	latched   bool
}

// observe feeds one confidence reading; it returns true when the retrain
// signal should fire now.
func (d *driftMonitor) observe(confidence float64, windows int) bool {
	if windows < driftMinWindows {
		return false
	}
	if confidence >= d.threshold {
		d.latched = false
		return false
	}
	if d.latched {
		return false
	}
	d.latched = true
	return true
}
