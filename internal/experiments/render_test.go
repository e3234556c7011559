package experiments

import (
	"strings"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/history"
	"ltefp/internal/ml/metrics"
)

func TestTableIIIRender(t *testing.T) {
	res := &TableIIIResult{Confusions: map[Variant]*metrics.Confusion{}}
	res.Rows = append(res.Rows, TableIIIRow{
		App:      "Netflix",
		Category: appmodel.Streaming,
		Cells: map[Variant]PRF{
			DownUp: {Precision: 0.99, Recall: 0.98, F1: 0.985},
			Down:   {Precision: 0.99, Recall: 0.98, F1: 0.985},
			Up:     {Precision: 0.70, Recall: 0.60, F1: 0.65},
		},
	})
	s := res.String()
	for _, want := range []string{"Netflix", "Down+Up", "0.985", "0.650"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table III render missing %q:\n%s", want, s)
		}
	}
}

func TestTableIVRender(t *testing.T) {
	res := &TableIVResult{
		Carriers:   []string{"Verizon"},
		Confusions: map[string]*metrics.Confusion{},
	}
	res.Rows = append(res.Rows, TableIVRow{
		App:      "Telegram",
		Category: appmodel.Messaging,
		Cells:    map[string]PRF{"Verizon": {Precision: 0.75, Recall: 0.74, F1: 0.745}},
	})
	s := res.String()
	for _, want := range []string{"Telegram", "Verizon", "0.745", "downlink only"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table IV render missing %q:\n%s", want, s)
		}
	}
}

func TestTableVRender(t *testing.T) {
	res := &TableVResult{Attack: &history.Result{
		Attempts: []history.Attempt{{
			Zone: 2, Day: 3, TrueApp: "Skype", TrueCategory: appmodel.VoIP,
			Predicted: "Skype", Confidence: 0.93, Correct: true, Stable: true,
		}},
		Successes: 1,
	}}
	s := res.String()
	for _, want := range []string{"Table V", "Zone B'", "Skype", "100%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table V render missing %q:\n%s", want, s)
		}
	}
}

func TestSimilarityTablesRender(t *testing.T) {
	vi := &TableVIResult{
		Settings: []string{"Lab"},
		Apps:     []string{"Skype"},
		Cells: map[string]map[string]SimilarityStat{
			"Lab": {"Skype": {Mean: 0.93, StdDev: 0.12}},
		},
	}
	if s := vi.String(); !strings.Contains(s, "0.930 / 0.120") {
		t.Errorf("Table VI render:\n%s", s)
	}
	var bc metrics.BinaryCounts
	bc.Add(true, true)
	vii := &TableVIIResult{
		Settings: []string{"Lab"},
		Apps:     []string{"Skype"},
		Cells:    map[string]map[string]metrics.BinaryCounts{"Lab": {"Skype": bc}},
	}
	if s := vii.String(); !strings.Contains(s, "1.000 / 1.000") {
		t.Errorf("Table VII render:\n%s", s)
	}
}

func TestFigureRenders(t *testing.T) {
	f8 := &Figure8Result{Points: []Figure8Point{{Day: 1, F1: 0.9}, {Day: 7, F1: 0.6}}}
	if d := f8.CrossedBelow(0.7); d != 7 {
		t.Fatalf("CrossedBelow = %d", d)
	}
	if s := f8.String(); !strings.Contains(s, "crossed the 70%") {
		t.Errorf("Figure 8 render:\n%s", s)
	}
	f8up := &Figure8Result{Points: []Figure8Point{{Day: 1, F1: 0.9}}}
	if d := f8up.CrossedBelow(0.7); d != 0 {
		t.Fatalf("uncrossed CrossedBelow = %d", d)
	}
	f9 := &Figure9Result{Points: []Figure9Point{{BackgroundApps: 5, Instances: 100, F1: 0.5}}}
	if s := f9.String(); !strings.Contains(s, "noise traffic") {
		t.Errorf("Figure 9 render:\n%s", s)
	}
}

func TestSweepHelpers(t *testing.T) {
	ws := &WindowSweepResult{Points: []WindowSweepPoint{
		{Window: 50 * time.Millisecond, WeightedF1: 0.8},
		{Window: 100 * time.Millisecond, WeightedF1: 0.9},
	}}
	if ws.Best().Window != 100*time.Millisecond {
		t.Fatal("Best() picked the wrong window")
	}
	tw := &TwSweepResult{App: "Skype", Points: []TwSweepPoint{
		{Tw: time.Second, Communicating: 0.9, Independent: 0.5},
		{Tw: 2 * time.Second, Communicating: 0.95, Independent: 0.4},
	}}
	if tw.BestTw() != 2*time.Second {
		t.Fatal("BestTw() picked the wrong window")
	}
	if s := tw.String(); !strings.Contains(s, "<- best") {
		t.Errorf("Tw sweep render:\n%s", s)
	}
}

func TestDefenseAndConcealmentRenders(t *testing.T) {
	p := &ParetoResult{Rows: []ParetoRow{
		{Name: "none", StaticF1: 0.87, AdaptiveF1: 0.87, Windows: 100, AttributionRatio: 1},
		{Name: "refresh=2s", StaticF1: 0.8, AdaptiveF1: 0.7, Windows: 7, AttributionRatio: 0.07},
	}}
	if s := p.String(); !strings.Contains(s, "attribution") || !strings.Contains(s, "refresh=2s") || !strings.Contains(s, "7.0%") {
		t.Errorf("pareto render lost the attribution column:\n%s", s)
	}
	c := &ConcealmentResult{Rows: []ConcealmentRow{
		{Name: "LTE", Bindings: 10, AttributedFraction: 1},
		{Name: "5G", Bindings: 0, AttributedFraction: 0},
	}}
	if s := c.String(); !strings.Contains(s, "SUCI") {
		t.Errorf("concealment render:\n%s", s)
	}
}
