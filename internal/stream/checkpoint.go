package stream

import (
	"fmt"
	"sort"
	"time"

	"ltefp/internal/features"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/snapshot"
	"ltefp/internal/trace"
)

// Checkpoint is the pipeline's complete restorable state at one aligned
// barrier: the simulated time reached, the cumulative stats, every
// per-user incremental window extractor, and every per-user vote ring
// with its drift-monitor latch. A pipeline restored from a checkpoint and
// fed the same post-checkpoint records produces verdicts byte-identical
// to one that was never interrupted — the property the daemon's
// kill-and-restart e2e test pins.
//
// A Checkpoint is plain data (private to its creator): safe to retain,
// encode, and restore from after the emitting pipeline has moved on.
type Checkpoint struct {
	// Now is the simulated time of the barrier: every record with At < Now
	// has been assembled, every window ending at or before Now has been
	// classified and voted.
	Now time.Duration
	// Stats is the cumulative pipeline stats at the barrier.
	Stats Stats
	// Users holds each tracked user's incremental extractor state, sorted
	// by key.
	Users []UserState
	// Votes holds each voted user's ring and drift state, sorted by key.
	Votes []VoteState
}

// UserState is one user's assemble-stage state.
type UserState struct {
	Key Key
	Inc features.IncrementalState
}

// VoteState is one user's verdict-stage state: the raw vote ring (slots,
// write position, fill) plus the drift monitor's latch.
type VoteState struct {
	Key          Key
	Slots        []int16
	Pos, Fill    int
	DriftLatched bool
}

// Section names of the pipeline's checkpoint state inside a snapshot
// container. The daemon adds its own sections (metadata, the trained
// model) around these.
const (
	SectionUsers = "stream.users"
	SectionVotes = "stream.votes"
	SectionDrift = "stream.drift"
	SectionStats = "stream.stats"
)

// sectionNames lists every pipeline section, in encode order.
var sectionNames = []string{SectionStats, SectionUsers, SectionVotes, SectionDrift}

// AppendTo writes the checkpoint's four sections into a snapshot
// container. Users and Votes are written in their (sorted) slice order,
// so equal state always produces equal bytes.
func (c *Checkpoint) AppendTo(w *snapshot.Writer) error {
	for _, name := range sectionNames {
		var payload []byte
		switch name {
		case SectionStats:
			payload = c.encodeStats()
		case SectionUsers:
			payload = c.encodeUsers()
		case SectionVotes:
			payload = c.encodeVotes()
		case SectionDrift:
			payload = c.encodeDrift()
		}
		if err := w.Section(name, payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadCheckpoint rebuilds a checkpoint from a decoded snapshot container's
// sections. All four pipeline sections must be present and intact.
func ReadCheckpoint(sections map[string][]byte) (*Checkpoint, error) {
	for _, name := range sectionNames {
		if _, ok := sections[name]; !ok {
			return nil, fmt.Errorf("stream: checkpoint missing section %q", name)
		}
	}
	c := &Checkpoint{}
	if err := c.decodeStats(sections[SectionStats]); err != nil {
		return nil, err
	}
	if err := c.decodeUsers(sections[SectionUsers]); err != nil {
		return nil, err
	}
	if err := c.decodeVotes(sections[SectionVotes]); err != nil {
		return nil, err
	}
	if err := c.decodeDrift(sections[SectionDrift]); err != nil {
		return nil, err
	}
	return c, nil
}

// --- stats section ---

func (c *Checkpoint) encodeStats() []byte {
	e := snapshot.NewEncoder(128)
	e.Duration(c.Now)
	s := &c.Stats
	e.Varint(s.Records)
	e.Varint(s.Rows)
	e.Varint(s.Predictions)
	e.Varint(s.Verdicts)
	e.Varint(s.ShedRecords)
	e.Varint(s.ShedRows)
	e.Varint(s.ShedPredictions)
	e.Varint(s.OutOfOrder)
	e.Varint(s.RetrainSignals)
	e.Varint(int64(s.Users))
	e.Duration(s.End)
	return e.Bytes()
}

func (c *Checkpoint) decodeStats(b []byte) error {
	d := snapshot.NewDecoder(b)
	c.Now = d.Duration()
	s := &c.Stats
	s.Records = d.Varint()
	s.Rows = d.Varint()
	s.Predictions = d.Varint()
	s.Verdicts = d.Varint()
	s.ShedRecords = d.Varint()
	s.ShedRows = d.Varint()
	s.ShedPredictions = d.Varint()
	s.OutOfOrder = d.Varint()
	s.RetrainSignals = d.Varint()
	s.Users = int(d.Varint())
	s.End = d.Duration()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("stream: checkpoint stats: %w", err)
	}
	return nil
}

// --- key helpers ---

func encodeKey(e *snapshot.Encoder, k Key) {
	e.Varint(int64(k.CellID))
	e.Uvarint(uint64(k.RNTI))
}

func decodeKey(d *snapshot.Decoder) Key {
	cell := d.Varint()
	r := d.Uvarint()
	return Key{CellID: int(cell), RNTI: rnti.RNTI(r)}
}

// --- users section (incremental window extractors) ---

func (c *Checkpoint) encodeUsers() []byte {
	e := snapshot.NewEncoder(1024)
	e.Uvarint(uint64(len(c.Users)))
	for i := range c.Users {
		u := &c.Users[i]
		encodeKey(e, u.Key)
		st := &u.Inc
		e.Duration(st.Width)
		e.Duration(st.Stride)
		e.Bool(st.Started)
		e.Duration(st.Next)
		e.Duration(st.LastAt)
		e.F64(st.PrevCount)
		e.F64(st.PrevBytes)
		e.Bool(st.HasEvicted)
		e.Duration(st.EvictedAt)
		e.Varint(st.OutOfOrder)
		e.Uvarint(uint64(len(st.Buf)))
		for _, r := range st.Buf {
			e.Duration(r.At)
			e.Varint(int64(r.CellID))
			e.Uvarint(uint64(r.RNTI))
			e.Varint(int64(r.Dir))
			e.Varint(int64(r.Bytes))
		}
	}
	return e.Bytes()
}

func (c *Checkpoint) decodeUsers(b []byte) error {
	d := snapshot.NewDecoder(b)
	n := d.Count(16)
	var users []UserState // nil when empty, so round-trips preserve DeepEqual
	for i := 0; i < n; i++ {
		var u UserState
		u.Key = decodeKey(d)
		st := &u.Inc
		st.Width = d.Duration()
		st.Stride = d.Duration()
		st.Started = d.Bool()
		st.Next = d.Duration()
		st.LastAt = d.Duration()
		st.PrevCount = d.F64()
		st.PrevBytes = d.F64()
		st.HasEvicted = d.Bool()
		st.EvictedAt = d.Duration()
		st.OutOfOrder = d.Varint()
		recs := d.Count(5)
		if d.Err() != nil {
			break
		}
		if recs > 0 {
			st.Buf = make([]trace.Record, 0, recs)
		}
		for j := 0; j < recs; j++ {
			st.Buf = append(st.Buf, trace.Record{
				At:     d.Duration(),
				CellID: int(d.Varint()),
				RNTI:   rnti.RNTI(d.Uvarint()),
				Dir:    dci.Direction(d.Varint()),
				Bytes:  int(d.Varint()),
			})
		}
		users = append(users, u)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("stream: checkpoint users: %w", err)
	}
	c.Users = users
	return nil
}

// --- votes section (vote rings) ---

func (c *Checkpoint) encodeVotes() []byte {
	e := snapshot.NewEncoder(1024)
	e.Uvarint(uint64(len(c.Votes)))
	for i := range c.Votes {
		v := &c.Votes[i]
		encodeKey(e, v.Key)
		e.Uvarint(uint64(v.Pos))
		e.Uvarint(uint64(v.Fill))
		e.Uvarint(uint64(len(v.Slots)))
		for _, s := range v.Slots {
			e.Varint(int64(s))
		}
	}
	return e.Bytes()
}

func (c *Checkpoint) decodeVotes(b []byte) error {
	d := snapshot.NewDecoder(b)
	n := d.Count(5)
	var votes []VoteState // nil when empty, so round-trips preserve DeepEqual
	for i := 0; i < n; i++ {
		var v VoteState
		v.Key = decodeKey(d)
		v.Pos = int(d.Uvarint())
		v.Fill = int(d.Uvarint())
		slots := d.Count(1)
		if d.Err() != nil {
			break
		}
		v.Slots = make([]int16, slots)
		for j := range v.Slots {
			s := d.Varint()
			if s < 0 || s > 1<<15-1 {
				return fmt.Errorf("stream: checkpoint votes: slot value %d out of range", s)
			}
			v.Slots[j] = int16(s)
		}
		if v.Pos < 0 || v.Pos >= max(len(v.Slots), 1) || v.Fill < 0 || v.Fill > len(v.Slots) {
			return fmt.Errorf("stream: checkpoint votes: impossible ring (pos %d, fill %d, %d slots)", v.Pos, v.Fill, len(v.Slots))
		}
		if v.Fill < len(v.Slots) && v.Pos != v.Fill {
			return fmt.Errorf("stream: checkpoint votes: unwrapped ring with pos %d != fill %d", v.Pos, v.Fill)
		}
		votes = append(votes, v)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("stream: checkpoint votes: %w", err)
	}
	c.Votes = votes
	return nil
}

// --- drift section (drift-monitor latches, parallel to votes) ---

func (c *Checkpoint) encodeDrift() []byte {
	e := snapshot.NewEncoder(64)
	e.Uvarint(uint64(len(c.Votes)))
	for i := range c.Votes {
		encodeKey(e, c.Votes[i].Key)
		e.Bool(c.Votes[i].DriftLatched)
	}
	return e.Bytes()
}

func (c *Checkpoint) decodeDrift(b []byte) error {
	d := snapshot.NewDecoder(b)
	n := d.Count(3)
	if d.Err() == nil && n != len(c.Votes) {
		return fmt.Errorf("stream: checkpoint drift: %d entries for %d vote rings", n, len(c.Votes))
	}
	for i := 0; i < n; i++ {
		k := decodeKey(d)
		latched := d.Bool()
		if d.Err() != nil {
			break
		}
		if k != c.Votes[i].Key {
			return fmt.Errorf("stream: checkpoint drift: entry %d keyed %v, vote ring keyed %v", i, k, c.Votes[i].Key)
		}
		c.Votes[i].DriftLatched = latched
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("stream: checkpoint drift: %w", err)
	}
	return nil
}

// --- pipeline integration ---

// captureUsers snapshots the assemble stage's per-user extractors into the
// barrier's checkpoint, in sorted key order, along with the stage's stats.
func (p *pipeline) captureUsers(c *Checkpoint) {
	c.Users = make([]UserState, 0, len(p.order))
	for _, k := range p.order {
		c.Users = append(c.Users, UserState{Key: k, Inc: p.users[k].State()})
	}
	c.Stats.Rows = p.st.Rows
	c.Stats.ShedRows = p.st.ShedRows
	c.Stats.Users = len(p.users)
	var ooo int64
	for _, inc := range p.users {
		ooo += inc.OutOfOrder
	}
	c.Stats.OutOfOrder = ooo
}

// captureVotes snapshots the verdict stage's vote rings and drift latches,
// in sorted key order, along with the stage's stats, completing the
// checkpoint.
func (p *pipeline) captureVotes(c *Checkpoint) {
	keys := make([]Key, 0, len(p.votes))
	for k := range p.votes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	c.Votes = make([]VoteState, 0, len(keys))
	for _, k := range keys {
		u := p.votes[k]
		c.Votes = append(c.Votes, VoteState{
			Key:          k,
			Slots:        append([]int16(nil), u.ring.slots...),
			Pos:          u.ring.pos,
			Fill:         u.ring.fill,
			DriftLatched: u.drift.latched,
		})
	}
	c.Stats.Verdicts = p.st.Verdicts
	c.Stats.RetrainSignals = p.st.RetrainSignals
}

// maxCheckpointTime bounds a restored checkpoint's simulated time (about
// 146 years), leaving the window arithmetic after it room not to overflow.
const maxCheckpointTime = time.Duration(1 << 62)

// restore primes a fresh pipeline with checkpointed state before its
// stages start. It validates the checkpoint against the pipeline: window
// geometry must match the classifier's and the vote horizon the
// configuration's, because restored state under different parameters
// would be silently wrong.
func (p *pipeline) restore(c *Checkpoint) error {
	if c.Now < 0 || c.Now > maxCheckpointTime {
		return fmt.Errorf("stream: checkpoint time %v out of range", c.Now)
	}
	apps := len(p.table.names)
	p.st = c.Stats
	for i := range c.Users {
		u := &c.Users[i]
		if u.Inc.Width != p.window || u.Inc.Stride != p.stride {
			return fmt.Errorf("stream: checkpoint window %v/%v does not match the classifier's %v/%v",
				u.Inc.Width, u.Inc.Stride, p.window, p.stride)
		}
		// Simulated time starts at zero, every record assembled before the
		// barrier is at or before Now, and no window opens more than a
		// stride past the newest source time. Outside those bounds the
		// first AdvanceTo or Flush would walk an unbounded run of windows.
		if u.Inc.Started && (u.Inc.Next < 0 || u.Inc.LastAt > c.Now || u.Inc.Next-c.Now >= p.stride) {
			return fmt.Errorf("stream: checkpoint user %v: window at %v, last record at %v, not reachable by %v",
				u.Key, u.Inc.Next, u.Inc.LastAt, c.Now)
		}
		inc, err := features.RestoreIncremental(u.Inc)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if i > 0 && !keyLess(c.Users[i-1].Key, u.Key) {
			return fmt.Errorf("stream: checkpoint users out of order at %v", u.Key)
		}
		p.users[u.Key] = inc
		p.order = append(p.order, u.Key)
	}
	for i := range c.Votes {
		v := &c.Votes[i]
		if len(v.Slots) != p.cfg.VoteHorizon {
			return fmt.Errorf("stream: checkpoint vote horizon %d does not match config %d",
				len(v.Slots), p.cfg.VoteHorizon)
		}
		if i > 0 && !keyLess(c.Votes[i-1].Key, v.Key) {
			return fmt.Errorf("stream: checkpoint votes out of order at %v", v.Key)
		}
		u := p.slab.get()
		u.drift = driftMonitor{
			threshold: p.cfg.DriftThreshold,
			latched:   v.DriftLatched,
		}
		copy(u.ring.slots, v.Slots)
		u.ring.pos = v.Pos
		u.ring.fill = v.Fill
		valid := v.Slots
		if v.Fill < len(v.Slots) {
			valid = v.Slots[:v.Fill]
		}
		for _, s := range valid {
			if int(s) >= apps {
				return fmt.Errorf("stream: checkpoint vote slot %d exceeds %d apps", s, apps)
			}
			u.ring.counts[s]++
		}
		p.votes[v.Key] = u
	}
	p.activeKey.Set(int64(len(p.order)))
	return nil
}
