package metrics_test

import (
	"math"
	"strings"
	"testing"

	"ltefp/internal/ml/metrics"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestConfusionHandChecked(t *testing.T) {
	c := metrics.NewConfusion([]string{"cat", "dog"})
	// 3 cats: 2 right, 1 predicted dog. 2 dogs: 1 right, 1 predicted cat.
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(1, 1)
	c.Add(1, 0)

	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.Support(0) != 3 || c.Support(1) != 2 {
		t.Fatal("supports wrong")
	}
	if !almost(c.Precision(0), 2.0/3) {
		t.Fatalf("precision(cat) = %v", c.Precision(0))
	}
	if !almost(c.Recall(0), 2.0/3) {
		t.Fatalf("recall(cat) = %v", c.Recall(0))
	}
	if !almost(c.F1(0), 2.0/3) {
		t.Fatalf("f1(cat) = %v", c.F1(0))
	}
	if !almost(c.Precision(1), 0.5) || !almost(c.Recall(1), 0.5) {
		t.Fatal("dog metrics wrong")
	}
	if !almost(c.Accuracy(), 0.6) {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
	wantWeighted := (2.0/3*3 + 0.5*2) / 5
	if !almost(c.WeightedF1(), wantWeighted) {
		t.Fatalf("weighted f1 = %v, want %v", c.WeightedF1(), wantWeighted)
	}
	if !almost(c.F1(1), 0.5) {
		t.Fatalf("f1(dog) = %v", c.F1(1))
	}
}

func TestConfusionDegenerate(t *testing.T) {
	c := metrics.NewConfusion([]string{"a", "b"})
	if c.Accuracy() != 0 || c.F1(0) != 0 || c.Precision(0) != 0 || c.Recall(0) != 0 {
		t.Fatal("empty confusion should score zero, not NaN")
	}
	c.Add(0, 0)
	if c.Recall(1) != 0 || c.Precision(1) != 0 {
		t.Fatal("absent class should score zero")
	}
}

func TestConfusionString(t *testing.T) {
	c := metrics.NewConfusion([]string{"a"})
	c.Add(0, 0)
	s := c.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "accuracy") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBinaryCounts(t *testing.T) {
	var b metrics.BinaryCounts
	b.Add(true, true)   // TP
	b.Add(true, true)   // TP
	b.Add(true, false)  // FN
	b.Add(false, true)  // FP
	b.Add(false, false) // TN
	if b.TP != 2 || b.FN != 1 || b.FP != 1 || b.TN != 1 {
		t.Fatalf("counts = %+v", b)
	}
	if !almost(b.Precision(), 2.0/3) {
		t.Fatalf("precision = %v", b.Precision())
	}
	if !almost(b.Recall(), 2.0/3) {
		t.Fatalf("recall = %v", b.Recall())
	}
	if !almost(b.F1(), 2.0/3) {
		t.Fatalf("f1 = %v", b.F1())
	}
	if !almost(b.Accuracy(), 0.6) {
		t.Fatalf("accuracy = %v", b.Accuracy())
	}
	var empty metrics.BinaryCounts
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 || empty.Accuracy() != 0 {
		t.Fatal("empty binary counts should score zero")
	}
}
