// Package metrics provides the classification quality measures the paper
// reports: per-class precision, recall, and F-score, overall and weighted
// accuracy, and the confusion matrix behind them.
package metrics

import (
	"fmt"
	"strings"
)

// Confusion is a confusion matrix over named classes. Rows are true
// classes, columns predicted classes.
type Confusion struct {
	Classes []string
	Counts  [][]int
	total   int
}

// NewConfusion returns an empty matrix over the given classes.
func NewConfusion(classes []string) *Confusion {
	m := make([][]int, len(classes))
	for i := range m {
		m[i] = make([]int, len(classes))
	}
	return &Confusion{Classes: classes, Counts: m}
}

// Add records one prediction.
func (c *Confusion) Add(trueClass, predicted int) {
	c.Counts[trueClass][predicted]++
	c.total++
}

// Total returns the number of recorded predictions.
func (c *Confusion) Total() int { return c.total }

// Support returns the number of true instances of a class.
func (c *Confusion) Support(class int) int {
	n := 0
	for _, v := range c.Counts[class] {
		n += v
	}
	return n
}

// Precision returns TP / (TP + FP) for a class (0 when never predicted).
func (c *Confusion) Precision(class int) float64 {
	tp := c.Counts[class][class]
	pred := 0
	for t := range c.Counts {
		pred += c.Counts[t][class]
	}
	if pred == 0 {
		return 0
	}
	return float64(tp) / float64(pred)
}

// Recall returns TP / (TP + FN) for a class (0 when no true instances).
func (c *Confusion) Recall(class int) float64 {
	sup := c.Support(class)
	if sup == 0 {
		return 0
	}
	return float64(c.Counts[class][class]) / float64(sup)
}

// F1 returns the harmonic mean of precision and recall for a class.
func (c *Confusion) F1(class int) float64 {
	p, r := c.Precision(class), c.Recall(class)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns overall accuracy.
func (c *Confusion) Accuracy() float64 {
	if c.total == 0 {
		return 0
	}
	correct := 0
	for i := range c.Counts {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(c.total)
}

// WeightedF1 returns the support-weighted mean of per-class F-scores.
func (c *Confusion) WeightedF1() float64 {
	if c.total == 0 {
		return 0
	}
	sum := 0.0
	for i := range c.Classes {
		sum += c.F1(i) * float64(c.Support(i))
	}
	return sum / float64(c.total)
}

// String renders the matrix with per-class metrics, one class per line.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s\n", "class", "support", "prec", "recall", "f1")
	for i, name := range c.Classes {
		fmt.Fprintf(&b, "%-16s %9d %9.3f %9.3f %9.3f\n",
			name, c.Support(i), c.Precision(i), c.Recall(i), c.F1(i))
	}
	fmt.Fprintf(&b, "accuracy %.3f  weighted-f1 %.3f\n", c.Accuracy(), c.WeightedF1())
	return b.String()
}

// BinaryCounts accumulates binary detection outcomes for attacks that are
// yes/no decisions (the correlation attack's contact detection).
type BinaryCounts struct {
	TP, FP, TN, FN int
}

// Add records one binary outcome.
func (b *BinaryCounts) Add(truth, predicted bool) {
	switch {
	case truth && predicted:
		b.TP++
	case !truth && predicted:
		b.FP++
	case truth && !predicted:
		b.FN++
	default:
		b.TN++
	}
}

// Precision returns TP / (TP + FP), 0 when nothing was predicted positive.
func (b *BinaryCounts) Precision() float64 {
	if b.TP+b.FP == 0 {
		return 0
	}
	return float64(b.TP) / float64(b.TP+b.FP)
}

// Recall returns TP / (TP + FN), 0 when there were no positives.
func (b *BinaryCounts) Recall() float64 {
	if b.TP+b.FN == 0 {
		return 0
	}
	return float64(b.TP) / float64(b.TP+b.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (b *BinaryCounts) F1() float64 {
	p, r := b.Precision(), b.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct decisions.
func (b *BinaryCounts) Accuracy() float64 {
	n := b.TP + b.FP + b.TN + b.FN
	if n == 0 {
		return 0
	}
	return float64(b.TP+b.TN) / float64(n)
}
