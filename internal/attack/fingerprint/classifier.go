// Package fingerprint implements Attack I of the paper: identifying which
// mobile app a victim is running from nothing but physical-channel
// metadata. Traces are cut into sliding windows (100 ms by default),
// aggregated into Table II feature vectors, and classified hierarchically —
// first into a category (streaming / messaging / VoIP), then into the
// specific app within that category — exactly the two-level Random Forest
// structure of the paper's §VI. Asynchronous sessions are handled by
// classifying every window independently and majority-voting, so the
// attacker needs no knowledge of where sessions begin or end.
package fingerprint

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/features"
	"ltefp/internal/ml/dataset"
	"ltefp/internal/ml/forest"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/trace"
)

// DefaultWindow is the paper's empirically chosen window size.
const DefaultWindow = 100 * time.Millisecond

// Config controls classifier construction.
type Config struct {
	// Window is the sliding-window width (default 100 ms).
	Window time.Duration
	// Stride is the window step (default = Window, non-overlapping).
	Stride time.Duration
	// Forest configures every forest in the hierarchy (defaults: 100
	// trees, seed 1 — the paper's Table VIII setting).
	Forest forest.Config
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Stride <= 0 {
		c.Stride = c.Window
	}
	if c.Forest.Seed == 0 {
		c.Forest.Seed = 1
	}
	return c
}

// WindowVectors converts a radio trace into per-window feature vectors
// (window aggregates plus trailing context), dropping silent windows — the
// classifier sees traffic, not absence of a user.
func WindowVectors(t trace.Trace, window, stride time.Duration) [][]float64 {
	return features.FromTrace(t, window, stride)
}

// TrainingSet accumulates labelled window vectors per app.
type TrainingSet struct {
	byApp map[string][][]float64
}

// NewTrainingSet returns an empty training set.
func NewTrainingSet() *TrainingSet {
	return &TrainingSet{byApp: make(map[string][][]float64)}
}

// Add appends window vectors recorded while the named app was running.
// The app must be one of the nine fingerprinted apps.
func (ts *TrainingSet) Add(appName string, vectors [][]float64) error {
	if _, err := appmodel.ByName(appName); err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	ts.byApp[appName] = append(ts.byApp[appName], vectors...)
	return nil
}

// Count returns the number of window vectors stored for an app.
func (ts *TrainingSet) Count(appName string) int { return len(ts.byApp[appName]) }

// Classifier is the trained two-level hierarchy.
type Classifier struct {
	// Window and Stride are the trace-splitting parameters the classifier
	// was trained with; classification must use the same.
	Window time.Duration
	Stride time.Duration

	// Category is the top-level 3-class forest.
	Category *forest.Forest
	// PerCategory holds one 3-class app forest per category, indexed by
	// category value.
	PerCategory map[appmodel.Category]*forest.Forest
}

// Train fits the hierarchy from a training set.
func Train(ts *TrainingSet, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	cats := appmodel.Categories()

	catNames := make([]string, len(cats))
	for i, c := range cats {
		catNames[i] = c.String()
	}
	// Every row count is known up front, so each dataset is sized once.
	allApps := appmodel.Apps()
	rows, catRows := 0, make(map[appmodel.Category]int, len(cats))
	for _, app := range allApps {
		n := len(ts.byApp[app.Name])
		if n == 0 {
			return nil, fmt.Errorf("fingerprint: no training windows for %s", app.Name)
		}
		rows += n
		catRows[app.Category] += n
	}
	catDS := dataset.New(catNames, features.Names())
	catDS.Grow(rows)
	perCatDS := make(map[appmodel.Category]*dataset.Dataset, len(cats))
	for _, c := range cats {
		apps := appmodel.ByCategory(c)
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.Name
		}
		perCatDS[c] = dataset.New(names, features.Names())
		perCatDS[c].Grow(catRows[c])
	}

	for _, app := range allApps {
		catIdx := categoryIndex(app.Category)
		appIdx := appIndexInCategory(app)
		for _, v := range ts.byApp[app.Name] {
			catDS.Add(v, catIdx)
			perCatDS[app.Category].Add(v, appIdx)
		}
	}

	// One Trainer serves all four forests: the category dataset is the
	// largest, so the per-category forests train in its scratch.
	var tr forest.Trainer
	cf, err := tr.Train(catDS, cfg.Forest)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: training category forest: %w", err)
	}
	out := &Classifier{
		Window:      cfg.Window,
		Stride:      cfg.Stride,
		Category:    cf,
		PerCategory: make(map[appmodel.Category]*forest.Forest, len(cats)),
	}
	for _, c := range cats {
		f, err := tr.Train(perCatDS[c], cfg.Forest)
		if err != nil {
			return nil, fmt.Errorf("fingerprint: training %s forest: %w", c, err)
		}
		out.PerCategory[c] = f
	}
	return out, nil
}

// PredictBatch classifies many window vectors at once, returning one app
// name per vector. The category forest runs batched over all rows, rows
// are then grouped by predicted category, and each app forest runs batched
// over its group.
func (c *Classifier) PredictBatch(vecs [][]float64) []string {
	out := make([]string, len(vecs))
	var s BatchScratch
	c.PredictBatchInto(vecs, out, &s)
	return out
}

// BatchScratch holds the working memory of PredictBatchInto — group
// indices, sub-batch row views, per-level prediction buffers, and the
// forests' own scratch — so a long-lived caller classifying many batches
// reaches a steady state with zero allocations per call. The zero value is
// ready; a scratch must not be shared between concurrent calls.
type BatchScratch struct {
	catPred []int
	appPred []int
	byCat   [][]int
	sub     [][]float64
	forest  forest.BatchScratch
	// cats/catApps cache the category and app-name tables: appmodel
	// rebuilds its catalog (closures included) on every lookup, which is
	// fine per trace but not per streaming batch.
	cats    []appmodel.Category
	catApps [][]string
}

// tables builds the cached category/app-name lookup on first use.
func (s *BatchScratch) tables() {
	if s.cats != nil {
		return
	}
	s.cats = appmodel.Categories()
	s.catApps = make([][]string, len(s.cats))
	for i, c := range s.cats {
		apps := appmodel.ByCategory(c)
		names := make([]string, len(apps))
		for j, a := range apps {
			names[j] = a.Name
		}
		s.catApps[i] = names
	}
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// PredictBatchInto is PredictBatch writing app names into out (len(out)
// must equal len(vecs)), reusing scratch across calls. Results are
// identical to PredictBatch.
func (c *Classifier) PredictBatchInto(vecs [][]float64, out []string, s *BatchScratch) {
	if len(vecs) == 0 {
		return
	}
	s.tables()
	s.catPred = growInts(s.catPred, len(vecs))
	c.Category.PredictBatchScratch(vecs, s.catPred, &s.forest)
	if cap(s.byCat) < len(s.cats) {
		s.byCat = make([][]int, len(s.cats))
	}
	s.byCat = s.byCat[:len(s.cats)]
	for ci := range s.byCat {
		s.byCat[ci] = s.byCat[ci][:0]
	}
	for i, ci := range s.catPred {
		s.byCat[ci] = append(s.byCat[ci], i)
	}
	for ci, rows := range s.byCat {
		if len(rows) == 0 {
			continue
		}
		cat := s.cats[ci]
		names := s.catApps[ci]
		s.sub = s.sub[:0]
		for _, r := range rows {
			s.sub = append(s.sub, vecs[r])
		}
		s.appPred = growInts(s.appPred, len(rows))
		c.PerCategory[cat].PredictBatchScratch(s.sub, s.appPred, &s.forest)
		for j, r := range rows {
			out[r] = names[s.appPred[j]]
		}
	}
}

// Prediction summarises the classification of one trace.
type Prediction struct {
	// App is the majority-voted app name.
	App string
	// Category is the majority app's category.
	Category appmodel.Category
	// Confidence is the fraction of windows voting for App — the per-trace
	// score the history attack thresholds (the paper's 70% stability gate).
	Confidence float64
	// Windows is the number of non-empty windows classified.
	Windows int
	// Votes holds the per-app window votes.
	Votes map[string]int
}

// PredictTrace classifies a whole radio trace by majority vote over its
// windows. An empty trace yields a zero Prediction.
func (c *Classifier) PredictTrace(t trace.Trace) Prediction {
	vecs := WindowVectors(t, c.Window, c.Stride)
	return c.PredictVectors(vecs)
}

// PredictVectors is PredictTrace over pre-extracted window vectors.
func (c *Classifier) PredictVectors(vecs [][]float64) Prediction {
	p := Prediction{Votes: make(map[string]int)}
	if len(vecs) == 0 {
		return p
	}
	for _, name := range c.PredictBatch(vecs) {
		p.Votes[name]++
	}
	p.Windows = len(vecs)
	best := -1
	for _, app := range appmodel.Apps() { // stable tie-break in table order
		if n := p.Votes[app.Name]; n > best {
			best = n
			p.App = app.Name
			p.Category = app.Category
		}
	}
	if p.Windows > 0 && best >= 0 {
		p.Confidence = float64(best) / float64(p.Windows)
	}
	return p
}

// Evaluate classifies labelled window vectors and returns the 9-class
// confusion matrix the paper's Tables III and IV report from.
func (c *Classifier) Evaluate(byApp map[string][][]float64) (*metrics.Confusion, error) {
	names := appmodel.Names()
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	conf := metrics.NewConfusion(names)
	for appName, vecs := range byApp {
		trueIdx, ok := idx[appName]
		if !ok {
			return nil, fmt.Errorf("fingerprint: evaluate: unknown app %q", appName)
		}
		for _, pred := range c.PredictBatch(vecs) {
			conf.Add(trueIdx, idx[pred])
		}
	}
	return conf, nil
}

func categoryIndex(c appmodel.Category) int {
	for i, cc := range appmodel.Categories() {
		if cc == c {
			return i
		}
	}
	panic("fingerprint: unknown category")
}

func appIndexInCategory(a appmodel.App) int {
	for i, app := range appmodel.ByCategory(a.Category) {
		if app.Name == a.Name {
			return i
		}
	}
	panic("fingerprint: app missing from its category")
}
