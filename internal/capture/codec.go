package capture

import (
	"fmt"
	"sort"

	"ltefp/internal/artifact"
	"ltefp/internal/identity"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/snapshot"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// captureCodec serialises a *Capture for the artifact store's disk tier.
// The Mapper is persisted as its interval timeline (its complete state —
// see identity.FromIntervals), so a decoded capture answers every
// UserTrace/identity query exactly as the original did. Workers and
// Metrics are runtime concerns, not capture content, and are not part of
// the payload (they are likewise excluded from the content key).
type captureCodec struct{}

func (captureCodec) Kind() artifact.Kind { return artifact.KindCapture }

// Version is the payload layout version; bump on any field change so
// older disk entries are discarded, never misread.
func (captureCodec) Version() uint32 { return 1 }

func (captureCodec) Encode(e *snapshot.Encoder, v any) error {
	c, ok := v.(*Capture)
	if !ok {
		return fmt.Errorf("capture: codec got %T", v)
	}
	e.Uvarint(uint64(len(c.Records)))
	for _, r := range c.Records {
		e.Varint(int64(r.At))
		e.Varint(int64(r.CellID))
		e.Uvarint(uint64(r.RNTI))
		e.Uvarint(uint64(r.Dir))
		e.Varint(int64(r.Bytes))
	}
	e.Uvarint(uint64(len(c.Events)))
	for _, ev := range c.Events {
		e.Varint(int64(ev.At))
		e.Varint(int64(ev.CellID))
		e.Uvarint(uint64(ev.RNTI))
		e.U32(ev.TMSI)
		e.Bool(ev.HasTMSI)
	}
	e.Uvarint(uint64(len(c.Pagings)))
	for _, p := range c.Pagings {
		e.Varint(int64(p.At))
		e.Varint(int64(p.CellID))
		e.U32(p.TMSI)
	}
	var ivs []identity.Interval
	if c.Mapper != nil {
		ivs = c.Mapper.Intervals()
	}
	e.Uvarint(uint64(len(ivs)))
	for _, iv := range ivs {
		e.Varint(int64(iv.CellID))
		e.Uvarint(uint64(iv.RNTI))
		e.U32(iv.TMSI)
		e.Varint(int64(iv.From))
		e.Varint(int64(iv.To))
	}
	names := make([]string, 0, len(c.TMSIs))
	for name := range c.TMSIs {
		names = append(names, name)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		e.Str(name)
		ts := c.TMSIs[name]
		e.Uvarint(uint64(len(ts)))
		for _, t := range ts {
			e.U32(t)
		}
	}
	e.Varint(c.Dropped)
	e.Varint(c.Health.Candidates)
	e.Varint(c.Health.Captured)
	e.Varint(c.Health.Dropped)
	e.Varint(c.Health.Corrupted)
	e.Varint(c.Health.CorruptCaught)
	e.Varint(c.Health.CorruptLeaked)
	e.Varint(c.Health.ParseRejects)
	e.Varint(c.Health.PlausibilityRejects)
	e.Varint(c.Defense.PadBytes)
	e.Varint(c.Defense.DummyBytes)
	e.Varint(c.Defense.CoverBytes)
	e.Varint(c.Defense.PagingMessages)
	e.Varint(c.Defense.PagingRecords)
	e.Varint(c.Defense.PagingDelayTTIs)
	return nil
}

func (captureCodec) Decode(d *snapshot.Decoder) (any, error) {
	c := &Capture{TMSIs: make(map[string][]uint32)}
	badRNTI := false
	readRNTI := func() rnti.RNTI {
		v := d.Uvarint()
		if v > 0xFFFF {
			badRNTI = true
			return 0
		}
		return rnti.RNTI(v)
	}
	n := d.Count(3)
	c.Records = make(trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		c.Records = append(c.Records, trace.Record{
			At:     d.Duration(),
			CellID: int(d.Varint()),
			RNTI:   readRNTI(),
			Dir:    dci.Direction(d.Uvarint()),
			Bytes:  int(d.Varint()),
		})
	}
	// Events and Pagings stay nil when empty, matching Run (which builds
	// them by append); Records is always non-nil, also matching Run.
	n = d.Count(4)
	if n > 0 {
		c.Events = make([]sniffer.IdentityEvent, 0, n)
	}
	for i := 0; i < n; i++ {
		c.Events = append(c.Events, sniffer.IdentityEvent{
			At:      d.Duration(),
			CellID:  int(d.Varint()),
			RNTI:    readRNTI(),
			TMSI:    d.U32(),
			HasTMSI: d.Bool(),
		})
	}
	n = d.Count(3)
	if n > 0 {
		c.Pagings = make([]sniffer.PagingEvent, 0, n)
	}
	for i := 0; i < n; i++ {
		c.Pagings = append(c.Pagings, sniffer.PagingEvent{
			At:     d.Duration(),
			CellID: int(d.Varint()),
			TMSI:   d.U32(),
		})
	}
	n = d.Count(4)
	ivs := make([]identity.Interval, 0, n)
	for i := 0; i < n; i++ {
		ivs = append(ivs, identity.Interval{
			CellID: int(d.Varint()),
			RNTI:   readRNTI(),
			TMSI:   d.U32(),
			From:   d.Duration(),
			To:     d.Duration(),
		})
	}
	n = d.Count(2)
	for i := 0; i < n; i++ {
		name := d.Str()
		k := d.Count(4)
		ts := make([]uint32, 0, k)
		for j := 0; j < k; j++ {
			ts = append(ts, d.U32())
		}
		if d.Err() == nil {
			c.TMSIs[name] = ts
		}
	}
	c.Dropped = d.Varint()
	c.Health.Candidates = d.Varint()
	c.Health.Captured = d.Varint()
	c.Health.Dropped = d.Varint()
	c.Health.Corrupted = d.Varint()
	c.Health.CorruptCaught = d.Varint()
	c.Health.CorruptLeaked = d.Varint()
	c.Health.ParseRejects = d.Varint()
	c.Health.PlausibilityRejects = d.Varint()
	c.Defense.PadBytes = d.Varint()
	c.Defense.DummyBytes = d.Varint()
	c.Defense.CoverBytes = d.Varint()
	c.Defense.PagingMessages = d.Varint()
	c.Defense.PagingRecords = d.Varint()
	c.Defense.PagingDelayTTIs = d.Varint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if badRNTI {
		return nil, fmt.Errorf("%w: RNTI out of range", snapshot.ErrCorrupt)
	}
	c.Mapper = identity.FromIntervals(ivs)
	return c, nil
}

// Size approximates the capture's resident footprint from its slice
// lengths and per-element struct sizes (padding included).
func (captureCodec) Size(v any) int64 {
	c, ok := v.(*Capture)
	if !ok {
		return 0
	}
	sz := int64(1024) // fixed fields, map headers
	sz += int64(len(c.Records)) * 40
	sz += int64(len(c.Events)) * 40
	sz += int64(len(c.Pagings)) * 24
	if c.Mapper != nil {
		sz += int64(len(c.Mapper.Intervals())) * 48
	}
	for name, ts := range c.TMSIs {
		sz += int64(len(name)) + int64(len(ts))*4 + 64
	}
	return sz
}
