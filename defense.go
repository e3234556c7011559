package ltefp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ltefp/internal/lte/enb"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sim"
)

// smartPagingCycleTTI is the coarsened paging-occasion period the
// SmartPaging defense installs: four times the default 32 ms cycle, so
// each occasion batches roughly four cycles' worth of paging records into
// shared messages and a presence probe can no longer resolve individual
// arrival times below 128 ms.
const smartPagingCycleTTI = 128

// Defense is a composable radio-layer defense configuration: each field
// enables one countermeasure, any combination composes, and the zero value
// is the undefended network (applying it changes no output byte — pinned
// by TestDefensesOffByteIdentical). Defenses price themselves: every
// capture reports the measured overhead in CaptureResult.Defense.
//
// The paper's §VIII-B/§VIII-C countermeasures (RNTIRefresh,
// TrafficMorphing, ConcealIdentities) are joined by the scheduler-side
// shaping suite (GrantQuantum, DummyBursts, ConstantRate) and the paging
// defense (SmartPaging).
type Defense struct {
	// RNTIRefresh, when positive, reassigns every connected UE's C-RNTI at
	// this period via encrypted signalling, breaking passive RNTI tracking.
	RNTIRefresh time.Duration
	// TrafficMorphing pads every grant to power-of-two size buckets.
	TrafficMorphing bool
	// ConcealIdentities replaces TMSIs with 5G-style one-time pseudonyms
	// in connection establishment and paging.
	ConcealIdentities bool
	// GrantQuantum, when positive, rounds every data grant up to a
	// randomized multiple of this many bytes, collapsing transport-block
	// sizes onto a coarse lattice.
	GrantQuantum int
	// DummyBurstProb, when positive, injects a fake downlink burst into
	// each connected UE's queue with this probability per 10 ms frame;
	// DummyBurstMaxBytes bounds each burst (required when the probability
	// is set).
	DummyBurstProb     float64
	DummyBurstMaxBytes int
	// ConstantRatePeriod and ConstantRateBytes, when set, put a
	// constant-rate floor under each connected UE's downlink: every period
	// the scheduler tops the queue up to the byte floor with cover
	// traffic, so the served rate no longer goes quiet between bursts.
	ConstantRatePeriod time.Duration
	ConstantRateBytes  int
	// SmartPaging coarsens the paging cycle (32 ms → 128 ms) so paging
	// occasions batch many records into shared messages, trading paging
	// latency for a larger per-occasion anonymity set against
	// presence probing.
	SmartPaging bool
}

// Enabled reports whether any countermeasure is switched on.
func (d Defense) Enabled() bool { return d != Defense{} }

// Validate checks the configuration for errors: negative or out-of-range
// knobs, and incomplete pairs (a burst probability without a size bound, a
// cover period without a byte floor).
func (d Defense) Validate() error {
	switch {
	case d.RNTIRefresh < 0:
		return fmt.Errorf("ltefp: Defense.RNTIRefresh %v negative", d.RNTIRefresh)
	case d.GrantQuantum < 0:
		return fmt.Errorf("ltefp: Defense.GrantQuantum %d negative", d.GrantQuantum)
	case d.DummyBurstProb < 0 || d.DummyBurstProb > 1:
		return fmt.Errorf("ltefp: Defense.DummyBurstProb %v outside [0, 1]", d.DummyBurstProb)
	case d.DummyBurstMaxBytes < 0:
		return fmt.Errorf("ltefp: Defense.DummyBurstMaxBytes %d negative", d.DummyBurstMaxBytes)
	case d.DummyBurstProb > 0 && d.DummyBurstMaxBytes < 1:
		return fmt.Errorf("ltefp: Defense.DummyBurstProb set without DummyBurstMaxBytes")
	case d.DummyBurstProb == 0 && d.DummyBurstMaxBytes > 0:
		return fmt.Errorf("ltefp: Defense.DummyBurstMaxBytes set without DummyBurstProb")
	case d.ConstantRatePeriod < 0:
		return fmt.Errorf("ltefp: Defense.ConstantRatePeriod %v negative", d.ConstantRatePeriod)
	case d.ConstantRatePeriod > 0 && d.ConstantRatePeriod < sim.TTI:
		return fmt.Errorf("ltefp: Defense.ConstantRatePeriod %v shorter than one TTI", d.ConstantRatePeriod)
	case d.ConstantRateBytes < 0:
		return fmt.Errorf("ltefp: Defense.ConstantRateBytes %d negative", d.ConstantRateBytes)
	case d.ConstantRatePeriod > 0 && d.ConstantRateBytes < 1:
		return fmt.Errorf("ltefp: Defense.ConstantRatePeriod set without ConstantRateBytes")
	case d.ConstantRatePeriod == 0 && d.ConstantRateBytes > 0:
		return fmt.Errorf("ltefp: Defense.ConstantRateBytes set without ConstantRatePeriod")
	}
	return nil
}

// apply copies the enabled countermeasures onto an operator profile. The
// zero Defense leaves the profile untouched.
func (d Defense) apply(p *operator.Profile) {
	if d.RNTIRefresh > 0 {
		p.RNTIRefreshEvery = d.RNTIRefresh
	}
	if d.TrafficMorphing {
		p.PadBuckets = true
	}
	if d.ConcealIdentities {
		p.OneTimeIdentifiers = true
	}
	if d.GrantQuantum > 0 {
		p.GrantQuantum = d.GrantQuantum
	}
	if d.DummyBurstProb > 0 {
		p.DummyBurstProb = d.DummyBurstProb
		p.DummyBurstMaxBytes = d.DummyBurstMaxBytes
	}
	if d.ConstantRatePeriod > 0 {
		p.ConstantRatePeriodTTI = int(d.ConstantRatePeriod / sim.TTI)
		p.ConstantRateBytes = d.ConstantRateBytes
	}
	if d.SmartPaging {
		p.PagingCycleTTI = smartPagingCycleTTI
	}
}

// ComposeDefenses merges defenses left to right: booleans OR together, and
// a later defense's non-zero numeric knob overrides an earlier one's.
// Composing with the zero Defense is the identity.
func ComposeDefenses(ds ...Defense) Defense {
	var out Defense
	for _, d := range ds {
		if d.RNTIRefresh > 0 {
			out.RNTIRefresh = d.RNTIRefresh
		}
		out.TrafficMorphing = out.TrafficMorphing || d.TrafficMorphing
		out.ConcealIdentities = out.ConcealIdentities || d.ConcealIdentities
		if d.GrantQuantum > 0 {
			out.GrantQuantum = d.GrantQuantum
		}
		if d.DummyBurstProb > 0 {
			out.DummyBurstProb = d.DummyBurstProb
			out.DummyBurstMaxBytes = d.DummyBurstMaxBytes
		}
		if d.ConstantRatePeriod > 0 {
			out.ConstantRatePeriod = d.ConstantRatePeriod
			out.ConstantRateBytes = d.ConstantRateBytes
		}
		out.SmartPaging = out.SmartPaging || d.SmartPaging
	}
	return out
}

// ParseDefense parses a comma-separated defense spec, e.g.
//
//	refresh=2s,morph,conceal,quant=256,dummy=0.05:1200,cr=20ms:400,smartpaging
//
// Tokens: refresh=<dur>, morph, conceal, quant=<bytes>,
// dummy=<prob>:<maxbytes>, cr=<period>:<bytes>, smartpaging, full (the
// whole suite). An empty spec is the zero Defense.
func ParseDefense(spec string) (Defense, error) {
	var d Defense
	if strings.TrimSpace(spec) == "" {
		return d, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		key, val, hasVal := strings.Cut(tok, "=")
		switch key {
		case "refresh":
			dur, err := time.ParseDuration(val)
			if err != nil || !hasVal {
				return Defense{}, fmt.Errorf("ltefp: defense token %q: want refresh=<duration>", tok)
			}
			d.RNTIRefresh = dur
		case "morph":
			d.TrafficMorphing = true
		case "conceal":
			d.ConcealIdentities = true
		case "quant":
			n, err := strconv.Atoi(val)
			if err != nil || !hasVal {
				return Defense{}, fmt.Errorf("ltefp: defense token %q: want quant=<bytes>", tok)
			}
			d.GrantQuantum = n
		case "dummy":
			probS, maxS, ok := strings.Cut(val, ":")
			prob, err1 := strconv.ParseFloat(probS, 64)
			max, err2 := strconv.Atoi(maxS)
			if !hasVal || !ok || err1 != nil || err2 != nil {
				return Defense{}, fmt.Errorf("ltefp: defense token %q: want dummy=<prob>:<maxbytes>", tok)
			}
			d.DummyBurstProb, d.DummyBurstMaxBytes = prob, max
		case "cr":
			perS, bytesS, ok := strings.Cut(val, ":")
			per, err1 := time.ParseDuration(perS)
			n, err2 := strconv.Atoi(bytesS)
			if !hasVal || !ok || err1 != nil || err2 != nil {
				return Defense{}, fmt.Errorf("ltefp: defense token %q: want cr=<period>:<bytes>", tok)
			}
			d.ConstantRatePeriod, d.ConstantRateBytes = per, n
		case "smartpaging":
			d.SmartPaging = true
		case "full":
			d = ComposeDefenses(d, FullDefenseSuite())
		default:
			return Defense{}, fmt.Errorf("ltefp: unknown defense token %q", tok)
		}
	}
	if err := d.Validate(); err != nil {
		return Defense{}, err
	}
	return d, nil
}

// FullDefenseSuite returns every countermeasure at its reference setting —
// the most protective (and most expensive) composition on the Pareto
// frontier.
func FullDefenseSuite() Defense {
	return Defense{
		RNTIRefresh:        2 * time.Second,
		TrafficMorphing:    true,
		ConcealIdentities:  true,
		GrantQuantum:       256,
		DummyBurstProb:     0.05,
		DummyBurstMaxBytes: 1200,
		ConstantRatePeriod: 20 * time.Millisecond,
		ConstantRateBytes:  400,
		SmartPaging:        true,
	}
}

// DefenseCost is the measured overhead of a capture's enabled defenses,
// aggregated across all cells. The zero value means no defense spent
// anything (always the case with the zero Defense).
type DefenseCost struct {
	// PadBytes counts bytes the morphing and quantization defenses added
	// to grants beyond the scheduler's baseline sizing (the undefended
	// network's own over-granting and TBS granularity are not charged).
	PadBytes int64
	// DummyBytes counts bytes injected by the dummy-burst defense.
	DummyBytes int64
	// CoverBytes counts bytes injected by the constant-rate floor.
	CoverBytes int64
	// PagingMessages and PagingRecords count paging messages on the air
	// and the records they carried; their ratio is the batching factor.
	PagingMessages int64
	PagingRecords  int64
	// PagingDelay sums the time paged UEs waited for their occasion — the
	// latency cost of coarsened (smart) paging.
	PagingDelay time.Duration
}

// OverheadBytes is the total padding/cover byte cost across mechanisms.
func (c DefenseCost) OverheadBytes() int64 {
	return c.PadBytes + c.DummyBytes + c.CoverBytes
}

// costFrom converts the internal counters to the public view.
func costFrom(st enb.DefenseStats) DefenseCost {
	return DefenseCost{
		PadBytes:       st.PadBytes,
		DummyBytes:     st.DummyBytes,
		CoverBytes:     st.CoverBytes,
		PagingMessages: st.PagingMessages,
		PagingRecords:  st.PagingRecords,
		PagingDelay:    time.Duration(st.PagingDelayTTIs) * sim.TTI,
	}
}
