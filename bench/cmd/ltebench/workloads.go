package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"ltefp/internal/artifact"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// workload is one benchmark scenario. A run calls setup, then op(0) as the
// untimed warm-up, possibly several times; then timed ops; then, when
// tracing, replays of the first timed ops.
type workload interface {
	// setup builds the state ops need, replacing any earlier round's.
	setup() error
	// op runs op i untraced. A non-nil error is a failed op: an
	// operational error or a failed correctness check.
	op(i int) (outcome, error)
	// replay reruns op i through the layers' public entry points on the
	// calling goroutine, recording a span at each call. Its digest must
	// equal the untraced op's.
	replay(i int, tr *tracer) (outcome, error)
	// close releases what setup built.
	close() error
}

// outcome is what one op produced.
type outcome struct {
	// digest identifies the op's output bytes.
	digest [32]byte
	// store is the artifact store's counters over the op (lab workloads).
	store artifact.KindStats
	// latencyMS holds each live verdict's latency: from the Next call
	// that delivered its window (op), or from the window's extraction
	// (replay).
	latencyMS []float64
}

// spec describes a workload to the runner.
type spec struct {
	name string
	// cycle is how many ops pass once over the run's distinct inputs;
	// timed ops run in whole cycles.
	cycle int
	// repeats marks a workload whose op i has the inputs of op i mod
	// cycle, so its output must match that op's first output.
	repeats bool
	// traceOps is how many timed ops a traced run replays.
	traceOps int
	make     func(*config) workload
}

// labWarmSeeds is how many TableIII seeds a lab-warm run serves. One
// seed's tables differ from another's in size by up to a fifth; cycling
// over several keeps that out of the run-to-run spread.
const labWarmSeeds = 4

var specs = []spec{
	{
		name: "lab-cold", cycle: 1, repeats: true, traceOps: 2,
		make: func(c *config) workload { return &lab{cfg: c, seeds: tableSeeds(c.seed, 1)} },
	},
	{
		name: "lab-warm", cycle: labWarmSeeds, repeats: true, traceOps: 20,
		make: func(c *config) workload { return &lab{cfg: c, warm: true, seeds: tableSeeds(c.seed, labWarmSeeds)} },
	},
	{
		name: "live-stream", cycle: 9, traceOps: 45,
		make: func(c *config) workload { return &live{cfg: c} },
	},
	{
		name: "metro-pop", cycle: 1, traceOps: 5,
		make: func(c *config) workload { return newMetro(c) },
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// digester hashes op outputs field by field.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digester) trace(t trace.Trace) {
	d.u64(uint64(len(t)))
	for _, r := range t {
		d.i64(int64(r.At))
		d.i64(int64(r.CellID))
		d.u64(uint64(r.RNTI))
		d.u64(uint64(r.Dir))
		d.i64(int64(r.Bytes))
	}
}

func (d *digester) sum() (out [32]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// captureDigest identifies a capture by the victim's attributed trace and
// the sizes of everything else it observed.
func captureDigest(victim trace.Trace, records, events, pagings int, h sniffer.Stats) [32]byte {
	d := newDigester()
	d.trace(victim)
	for _, v := range []int64{int64(records), int64(events), int64(pagings),
		h.Candidates, h.Captured, h.PlausibilityRejects} {
		d.i64(v)
	}
	return d.sum()
}
