package phy_test

import (
	"testing"
	"testing/quick"

	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
)

func TestCandidatesDeterministic(t *testing.T) {
	a, err := phy.Candidates(0x1234, 2, 77, phy.DefaultNCCE)
	if err != nil {
		t.Fatal(err)
	}
	b, err := phy.Candidates(0x1234, 2, 77, phy.DefaultNCCE)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("candidate count changed between identical calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("candidate positions changed between identical calls")
		}
	}
}

// TestCandidatesInRange: every candidate must fit within the CCE grid and
// be aligned to its aggregation level.
func TestCandidatesInRange(t *testing.T) {
	f := func(r uint16, aggPick uint8, sf uint16) bool {
		agg := phy.AggregationLevels[int(aggPick)%len(phy.AggregationLevels)]
		cands, err := phy.Candidates(rnti.RNTI(r), agg, int64(sf), phy.DefaultNCCE)
		if err != nil {
			// Only common-search-space constraint violations are legal
			// errors here.
			return !rnti.RNTI(r).IsC() && agg < 4
		}
		for _, c := range cands {
			if c < 0 || c+agg > phy.DefaultNCCE {
				return false
			}
			if c%agg != 0 {
				return false
			}
		}
		return len(cands) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCandidatesVaryWithSubframe(t *testing.T) {
	// The UE-specific hash moves candidates around across subframes; over
	// ten subframes at least two distinct layouts must appear.
	distinct := make(map[int]bool)
	for sf := int64(0); sf < 10; sf++ {
		cands, err := phy.Candidates(0x2345, 1, sf, phy.DefaultNCCE)
		if err != nil {
			t.Fatal(err)
		}
		distinct[cands[0]] = true
	}
	if len(distinct) < 2 {
		t.Fatal("UE-specific search space does not vary with subframe")
	}
}

func TestCommonSearchSpace(t *testing.T) {
	if _, err := phy.Candidates(rnti.PRNTI, 1, 0, phy.DefaultNCCE); err == nil {
		t.Error("common search space accepted aggregation level 1")
	}
	cands, err := phy.Candidates(rnti.PRNTI, 4, 0, phy.DefaultNCCE)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c+4 > 16 {
			t.Fatalf("common-space candidate %d extends past CCE 16", c)
		}
	}
}

func TestCCEMapNoOverlap(t *testing.T) {
	m := phy.NewCCEMap(phy.DefaultNCCE)
	used := 0
	for r := rnti.RNTI(0x100); r < 0x180; r++ {
		if _, ok := m.Place(r, 2, 5); ok {
			used += 2
		}
	}
	if got := m.Used(); got != used {
		t.Fatalf("Used() = %d, want %d: placements overlapped", got, used)
	}
	if used == 0 {
		t.Fatal("no placements succeeded at all")
	}
}

func TestCCEMapCongestion(t *testing.T) {
	// A tiny grid must eventually refuse placements rather than overlap.
	m := phy.NewCCEMap(8)
	refused := false
	for r := rnti.RNTI(0x100); r < 0x140; r++ {
		if _, ok := m.Place(r, 4, 3); !ok {
			refused = true
		}
	}
	if !refused {
		t.Fatal("an 8-CCE grid accepted 64 placements of level 4")
	}
	if m.Used() > 8 {
		t.Fatalf("Used() = %d exceeds grid size", m.Used())
	}
}
