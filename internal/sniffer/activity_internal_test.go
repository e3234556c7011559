package sniffer

import (
	"math/rand/v2"
	"slices"
	"testing"

	"ltefp/internal/lte/crc"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/trace"
)

// edgeRNTIs are the addresses the op stream picks most often: both ends of
// the 16-bit space, the RA and C-RNTI range boundaries, and the paging and
// system-information identities. Only the C-RNTIs among them may ever
// enter the count table.
var edgeRNTIs = []rnti.RNTI{
	0, 1, rnti.RAMax, rnti.CMin, rnti.CMin + 1, 0x4242,
	rnti.CMax - 1, rnti.CMax, rnti.CMax + 1, rnti.PRNTI, rnti.SIRNTI,
}

// activityModel is the reference the RNTI-indexed count table is checked
// against: a map from RNTI to sighting count, rebuilt from the captured
// records (which the table does not influence), with the validation and
// drain rules restated over it.
type activityModel struct {
	count   map[rnti.RNTI]int
	fed     int // records folded into count so far
	drained int
	pending map[rnti.RNTI][]trace.Record
}

func newActivityModel() *activityModel {
	return &activityModel{count: make(map[rnti.RNTI]int), pending: make(map[rnti.RNTI][]trace.Record)}
}

// feed folds the records captured since the last call into the model.
func (m *activityModel) feed(records trace.Trace) {
	for ; m.fed < len(records); m.fed++ {
		m.count[records[m.fed].RNTI]++
	}
}

// checkCounts fails unless s's count table reads as the model for every
// RNTI the model has seen.
func (m *activityModel) checkCounts(t *testing.T, s *Sniffer) {
	t.Helper()
	for r, want := range m.count {
		if got := s.count(r); got != want {
			t.Fatalf("count(%v) = %d, model %d", r, got, want)
		}
	}
}

func (m *activityModel) validated(records trace.Trace, minCount int) (out trace.Trace, rejects int64) {
	for _, r := range records {
		if m.count[r.RNTI] >= minCount {
			out = append(out, r)
		} else {
			rejects++
		}
	}
	return out, rejects
}

func (m *activityModel) drain(records trace.Trace, minCount int) (out trace.Trace) {
	for ; m.drained < len(records); m.drained++ {
		r := records[m.drained]
		if m.count[r.RNTI] < minCount {
			m.pending[r.RNTI] = append(m.pending[r.RNTI], r)
			continue
		}
		out = append(out, m.pending[r.RNTI]...)
		delete(m.pending, r.RNTI)
		out = append(out, r)
	}
	return out
}

func (m *activityModel) flushRejected() (n int64) {
	for _, held := range m.pending {
		n += int64(len(held))
	}
	m.pending = nil
	return n
}

// opReader hands out the op stream's bytes, zeros once it is exhausted.
type opReader struct{ b []byte }

func (o *opReader) next() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

// checkActivityTable decodes ops into a subframe stream and feeds it to two
// identically seeded sniffers: batch, read through AppendValidated, and
// stream, read through DrainValidated and FlushRejected. Every accessor's
// answer, at drain and count checkpoints and at the end, must equal the
// map model's; at the end the whole 16-bit table must read as the model. It
// returns the number of ghosts: captured RNTIs no candidate was sent to.
//
// Layout: four config bytes (loss, corruption, direction, minCount and rng
// seed), then four-byte ops. By op kind: a PDCCH candidate to an edge RNTI,
// to any 16-bit RNTI, or of garbage bytes; a subframe step of up to eight
// TTIs; a drain checkpoint; a count-table checkpoint.
func checkActivityTable(t *testing.T, ops []byte) (ghosts int) {
	t.Helper()
	in := &opReader{b: ops}
	c0, c1, c2, c3 := in.next(), in.next(), in.next(), in.next()
	cfg := Config{
		LossProb:    float64(c0%4) / 8,
		CorruptProb: 0.05 + float64(c1%8)/16,
	}
	switch c2 % 3 {
	case 1:
		cfg.DownlinkOnly = true
	case 2:
		cfg.UplinkOnly = true
	}
	minCount := 1 + int(c3%4)
	seed := uint64(c3 >> 2)
	regB, regS := obs.NewRegistry(), obs.NewRegistry()
	cfgB, cfgS := cfg, cfg
	cfgB.Metrics, cfgS.Metrics = regB.Scope("sniffer"), regS.Scope("sniffer")
	batch := New(cfgB, sim.NewRNG(seed))
	stream := New(cfgS, sim.NewRNG(seed))
	model := newActivityModel()
	sent := make(map[rnti.RNTI]bool)

	var drained trace.Trace
	sf := &phy.Subframe{}
	flush := func() {
		batch.Observe(3, sf)
		stream.Observe(3, sf)
		sf.PDCCH = sf.PDCCH[:0]
	}
	for len(in.b) > 0 {
		kind, a, b, c := in.next(), in.next(), in.next(), in.next()
		switch kind % 8 {
		case 0, 1, 2, 3, 4:
			r := rnti.RNTI(a)<<8 | rnti.RNTI(b)
			if kind%8 < 3 {
				r = edgeRNTIs[int(a)%len(edgeRNTIs)]
			}
			sent[r] = true
			msg := dci.Message{Format: dci.Format0, NPRB: 1 + int(c%8), MCS: int(c>>3) % 29, HARQ: int(b % 8)}
			if c%2 == 1 {
				msg.Format = dci.Format1A
			}
			payload := make([]byte, dci.PayloadLen)
			if err := msg.PackInto(payload); err != nil {
				t.Fatal(err)
			}
			if kind%8 == 4 {
				payload = []byte{a, b, c, kind}
			}
			sf.PDCCH = append(sf.PDCCH, phy.Transmission{Payload: payload, MaskedCRC: crc.Attach(payload, uint16(r))})
		case 5:
			flush()
			sf.Index += 1 + int64(a%8)
		case 6:
			flush()
			model.feed(stream.Records())
			n := len(drained)
			drained = stream.DrainValidated(drained, minCount)
			if want := model.drain(stream.Records(), minCount); !slices.Equal(drained[n:], want) {
				t.Fatalf("DrainValidated at subframe %d: %d records, model %d", sf.Index, len(drained)-n, len(want))
			}
		case 7:
			flush()
			model.feed(batch.Records())
			model.checkCounts(t, batch)
		}
	}
	flush()

	if !slices.Equal(batch.Records(), stream.Records()) {
		t.Fatal("identically seeded sniffers captured different records")
	}
	records := batch.Records()
	model.feed(records)

	gotV := batch.AppendValidated(nil, minCount)
	wantV, wantRejects := model.validated(records, minCount)
	if !slices.Equal(gotV, wantV) {
		t.Fatalf("AppendValidated kept %d of %d records, model %d", len(gotV), len(records), len(wantV))
	}
	if got := batch.Stats().PlausibilityRejects; got != wantRejects {
		t.Fatalf("batch PlausibilityRejects = %d, model %d", got, wantRejects)
	}
	if got := regB.Snapshot().Counter("sniffer.plausibility_rejects"); got != wantRejects {
		t.Fatalf("batch plausibility_rejects counter = %d, model %d", got, wantRejects)
	}

	n := len(drained)
	drained = stream.DrainValidated(drained, minCount)
	if want := model.drain(records, minCount); !slices.Equal(drained[n:], want) {
		t.Fatalf("final DrainValidated: %d records, model %d", len(drained)-n, len(want))
	}
	flushed, wantFlushed := stream.FlushRejected(), model.flushRejected()
	if flushed != wantFlushed || stream.Stats().PlausibilityRejects != wantFlushed {
		t.Fatalf("FlushRejected = %d (Stats %d), model %d", flushed, stream.Stats().PlausibilityRejects, wantFlushed)
	}
	if got := regS.Snapshot().Counter("sniffer.plausibility_rejects"); got != wantFlushed {
		t.Fatalf("stream plausibility_rejects counter = %d, model %d", got, wantFlushed)
	}
	if flushed != wantRejects {
		t.Fatalf("drain sequence rejected %d records, batch validation %d", flushed, wantRejects)
	}

	// The table reads as the model for every RNTI: each one the model saw
	// has its count, and no other entry is set, so the rest (RNTIs 0 and
	// 0xFFFF, every RNTI never seen) read as zero.
	for _, s := range []*Sniffer{batch, stream} {
		model.checkCounts(t, s)
		set := 0
		for _, n := range s.counts {
			if n != 0 {
				set++
			}
		}
		if set != len(model.count) {
			t.Fatalf("table holds %d counts, model %d", set, len(model.count))
		}
	}
	for r := range model.count {
		if !r.IsC() {
			t.Fatalf("non-C-RNTI %v entered the activity table", r)
		}
		if !sent[r] {
			ghosts++
		}
	}
	return ghosts
}

// TestActivityTableMatchesMapModel drives randomized subframe streams,
// with corruption on so that ghost RNTIs appear, through checkActivityTable.
func TestActivityTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	ghosts := 0
	for i := 0; i < 200; i++ {
		ops := make([]byte, 4+4*(50+rng.IntN(400)))
		for j := range ops {
			ops[j] = byte(rng.UintN(256))
		}
		ghosts += checkActivityTable(t, ops)
	}
	if ghosts == 0 {
		t.Fatal("no stream produced a ghost RNTI; the corruption path went unchecked")
	}
}

// FuzzActivityTable runs checkActivityTable on fuzzer-chosen op streams,
// cut to 1024 ops so that a grown input cannot turn the per-checkpoint
// model scans quadratic. The seed corpus is in
// testdata/fuzz/FuzzActivityTable.
func FuzzActivityTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4+4*1024 {
			ops = ops[:4+4*1024]
		}
		checkActivityTable(t, ops)
	})
}
