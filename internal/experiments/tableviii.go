package experiments

import (
	"fmt"
	"strings"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/cnn"
	"ltefp/internal/ml/dataset"
	"ltefp/internal/ml/forest"
	"ltefp/internal/ml/knn"
	"ltefp/internal/ml/logreg"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// Algorithm names in the paper's Table VIII column order.
const (
	AlgLR  = "LR"
	AlgKNN = "kNN"
	AlgCNN = "CNN"
	AlgRF  = "RF"
)

// Algorithms lists the benchmark columns in paper order.
func Algorithms() []string { return []string{AlgLR, AlgKNN, AlgCNN, AlgRF} }

// TableVIIIResult reproduces Table VIII: per-category accuracy of the four
// candidate learners on a mixed real-world dataset, with Random Forest
// expected to lead.
type TableVIIIResult struct {
	// PerClass is indexed [algorithm][category name].
	PerClass map[string]map[string]float64
	// Average is the support-weighted average accuracy per algorithm.
	Average map[string]float64
	// ClassCounts reports the mixed dataset's class sizes (the paper mixes
	// Streaming 265,599 / Calling 109,692 / Messenger 38,333 — streaming-
	// heavy, messaging-light; our natural window counts share that skew).
	ClassCounts map[string]int
	// Params echoes each algorithm's hyperparameters.
	Params map[string]string
}

// TableVIII benchmarks the four learners on a 3-category dataset built
// from the T-Mobile (real-world) campaign — apps of all three classes
// mixed into one corpus, split 80/20 as in the paper. The comparison's
// reproduction target is the ordering (RF first, CNN last); see
// EXPERIMENTS.md for why the absolute accuracies sit above the paper's.
func TableVIII(scale Scale, seed uint64) (*TableVIIIResult, error) {
	prof := operator.TMobile()
	cats := appmodel.Categories()
	catNames := make([]string, len(cats))
	for i, c := range cats {
		catNames[i] = c.String()
	}
	// Sessions run in parallel; rows are appended serially in app and
	// session order so the dataset layout matches the serial runner's.
	apps := appmodel.Apps()
	specs := make([]fingerprint.CollectSpec, len(apps))
	for ai, app := range apps {
		sessions, dur := scale.sessionsFor(app)
		specs[ai] = fingerprint.CollectSpec{
			Profile:          prof,
			App:              app,
			Sessions:         sessions,
			SessionDur:       dur,
			Seed:             seed + 2749 + uint64(ai+1)*7919,
			Sniffer:          sniffer.Config{CorruptProb: snifferCorruption, DownlinkOnly: true},
			ApplyProfileLoss: true,
			Population:       scale.Population,
			Metrics:          pipelineScope(),
		}
	}
	collected, err := collectSessions("table VIII", specs, defaultWindows)
	if err != nil {
		return nil, err
	}
	ds := dataset.New(catNames, features.Names())
	for ai, app := range apps {
		y := 0
		for i, c := range cats {
			if c == app.Category {
				y = i
			}
		}
		for _, vecs := range collected[ai] {
			ds.AddAll(vecs, y)
		}
	}
	rng := sim.NewRNG(seed + 5381)
	train, test := ds.Split(0.8, rng)

	res := &TableVIIIResult{
		PerClass:    make(map[string]map[string]float64),
		Average:     make(map[string]float64),
		ClassCounts: make(map[string]int),
		Params: map[string]string{
			AlgLR:  "C = 1",
			AlgKNN: "k = 4",
			AlgCNN: "classes = 3, loss = softmax cross-entropy",
			AlgRF:  "trees = 100, seed = 1",
		},
	}
	for i, c := range ds.ClassCounts() {
		res.ClassCounts[catNames[i]] = c
	}

	// kNN memorises the training set; cap it so prediction stays tractable
	// at full scale without changing the comparison's shape. The sample is
	// drawn before the parallel cells so the rng stream stays in serial
	// order.
	knnTrain := train.SamplePerClass(3000, rng)

	evalPredict := func(predict func(x []float64) int) *metrics.Confusion {
		conf := metrics.NewConfusion(catNames)
		for i, x := range test.X {
			conf.Add(test.Y[i], predict(x))
		}
		return conf
	}
	type cell struct {
		name string
		run  func() (*metrics.Confusion, error)
	}
	cells := []cell{
		{AlgLR, func() (*metrics.Confusion, error) {
			m, err := logreg.Train(train, logreg.Config{C: 1, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("experiments: table VIII LR: %w", err)
			}
			return evalPredict(m.Predict), nil
		}},
		{AlgKNN, func() (*metrics.Confusion, error) {
			m, err := knn.Train(knnTrain, 4)
			if err != nil {
				return nil, fmt.Errorf("experiments: table VIII kNN: %w", err)
			}
			return evalPredict(m.Predict), nil
		}},
		{AlgCNN, func() (*metrics.Confusion, error) {
			m, err := cnn.Train(train, cnn.Config{Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("experiments: table VIII CNN: %w", err)
			}
			return evalPredict(m.Predict), nil
		}},
		{AlgRF, func() (*metrics.Confusion, error) {
			m, err := forest.Train(train, forestConfig(1))
			if err != nil {
				return nil, fmt.Errorf("experiments: table VIII RF: %w", err)
			}
			conf := metrics.NewConfusion(catNames)
			for i, p := range m.PredictBatch(test.X) {
				conf.Add(test.Y[i], p)
			}
			return conf, nil
		}},
	}
	confs := make([]*metrics.Confusion, len(cells))
	err = forEach(len(cells), func(i int) error {
		conf, err := cells[i].run()
		if err != nil {
			return err
		}
		confs[i] = conf
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		conf := confs[i]
		per := make(map[string]float64, len(catNames))
		for ci, cn := range catNames {
			per[cn] = conf.Recall(ci) // per-class accuracy
		}
		res.PerClass[c.name] = per
		res.Average[c.name] = conf.Accuracy()
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *TableVIIIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VIII: performance comparison of learning algorithms (weighted accuracy)\n")
	fmt.Fprintf(&b, "%-12s", "Class")
	for _, a := range Algorithms() {
		fmt.Fprintf(&b, " %8s", a)
	}
	fmt.Fprintln(&b)
	for _, cat := range appmodel.Categories() {
		fmt.Fprintf(&b, "%-12s", cat)
		for _, a := range Algorithms() {
			fmt.Fprintf(&b, " %8.3f", r.PerClass[a][cat.String()])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "Average")
	for _, a := range Algorithms() {
		fmt.Fprintf(&b, " %8.3f", r.Average[a])
	}
	fmt.Fprintln(&b)
	for _, a := range Algorithms() {
		fmt.Fprintf(&b, "  %s: %s\n", a, r.Params[a])
	}
	fmt.Fprintf(&b, "  dataset class counts:")
	for _, cat := range appmodel.Categories() {
		fmt.Fprintf(&b, " %s %d", cat, r.ClassCounts[cat.String()])
	}
	fmt.Fprintln(&b)
	return b.String()
}
