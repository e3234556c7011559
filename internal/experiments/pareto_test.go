package experiments

import (
	"strings"
	"testing"
)

// TestParetoTiny runs the defense arms race at tiny scale and pins its
// structural guarantees: the baseline anchors the overhead axis at zero and
// the attribution axis at one, the static and adaptive attackers coincide
// only where they share a classifier, shaping defenses actually cost bytes,
// the §VIII-B countermeasures do what the paper says (RNTI refresh breaks
// attribution, morphing costs air bytes), and the frontier marking is
// non-empty and deterministic.
func TestParetoTiny(t *testing.T) {
	res, err := Pareto(tinyScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("pareto swept %d compositions, want >= 5", len(res.Rows))
	}
	base := res.Rows[0]
	if base.Name != "none" {
		t.Fatalf("row 0 is %q, want the undefended baseline", base.Name)
	}
	if base.Overhead != 0 {
		t.Errorf("baseline overhead %v, want 0", base.Overhead)
	}
	if base.AttributionRatio != 1 {
		t.Errorf("baseline attribution %v, want 1", base.AttributionRatio)
	}
	// On the baseline the static attacker IS the adaptive attacker (same
	// classifier, same held-out windows); anywhere else they may differ.
	if base.StaticF1 != base.AdaptiveF1 {
		t.Errorf("baseline static F1 %v != adaptive F1 %v", base.StaticF1, base.AdaptiveF1)
	}
	byName := map[string]ParetoRow{}
	costly, frontier := 0, 0
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.Overhead > 0 {
			costly++
		}
		if row.Frontier {
			frontier++
		}
		if row.Windows <= 0 {
			t.Errorf("%s evaluated zero windows", row.Name)
		}
	}
	if costly == 0 {
		t.Error("no composition reported positive byte overhead")
	}
	for _, name := range []string{"refresh=2s", "refresh=2s,morph"} {
		row, ok := byName[name]
		if !ok {
			t.Errorf("no %s row", name)
		} else if row.AttributionRatio >= 0.5 {
			t.Errorf("%s kept %.3f of the baseline's attribution, want < 0.5", name, row.AttributionRatio)
		}
	}
	if row, ok := byName["morph"]; !ok {
		t.Error("no morph row")
	} else if row.Overhead <= 0 {
		t.Errorf("morph air overhead %v, want > 0", row.Overhead)
	}
	if frontier == 0 {
		t.Error("no composition on the Pareto frontier")
	}
	if s := res.String(); !strings.Contains(s, "static-F1") || !strings.Contains(s, "adaptive-F1") {
		t.Errorf("rendering lost an attacker column:\n%s", s)
	}

	again, err := Pareto(tinyScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != again.String() {
		t.Errorf("pareto not deterministic:\n%s\nvs\n%s", res.String(), again.String())
	}
}

// TestMarkFrontier pins the dominance rule on synthetic rows.
func TestMarkFrontier(t *testing.T) {
	rows := []ParetoRow{
		{Name: "baseline", AdaptiveF1: 0.90, Overhead: 0},     // frontier: cheapest
		{Name: "good", AdaptiveF1: 0.60, Overhead: 0.10},      // frontier
		{Name: "dominated", AdaptiveF1: 0.70, Overhead: 0.20}, /* beaten by "good" on both axes */
		{Name: "strong", AdaptiveF1: 0.40, Overhead: 0.50},    // frontier: most protective
	}
	markFrontier(rows)
	want := map[string]bool{"baseline": true, "good": true, "dominated": false, "strong": true}
	for _, r := range rows {
		if r.Frontier != want[r.Name] {
			t.Errorf("%s frontier=%v, want %v", r.Name, r.Frontier, want[r.Name])
		}
	}
}
