package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"ltefp"
	"ltefp/internal/appmodel"
	"ltefp/internal/artifact"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/experiments"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/forest"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// goldenTable is the committed Table III at Quick scale and seed 1.
const goldenTable = "internal/experiments/testdata/tableiii_quick_seed1.golden"

// snifferCorruption is the baseline decode-corruption rate the
// repository's captures apply (experiments' snifferCorruption, ltefp's
// baselineCorruption).
const snifferCorruption = 0.002

// lab runs experiments.TableIII at Quick scale: cold (lab-cold) or served
// from a disk tier filled during set-up (lab-warm). Op i regenerates the
// table of seeds[i mod len(seeds)].
type lab struct {
	cfg    *config
	warm   bool
	seeds  []uint64
	golden string     // the golden table, read when a table seed is 1
	tier   string     // lab-warm's disk tier
	cold   [][32]byte // lab-warm: each seed's table from the set-up's cold run
}

// tableSeeds derives k TableIII seeds from a run seed, the first equal to
// it so that run seed 1 covers the golden table.
func tableSeeds(seed uint64, k int) []uint64 {
	out := make([]uint64, k)
	for j := range out {
		out[j] = seed + uint64(j)<<32
	}
	return out
}

func (l *lab) setup() error {
	if l.seeds[0] == 1 && l.golden == "" {
		b, err := os.ReadFile(filepath.Join(l.cfg.root, goldenTable))
		if err != nil {
			return err
		}
		l.golden = string(b)
	}
	if !l.warm {
		return nil
	}
	if err := l.close(); err != nil {
		return err
	}
	if err := os.MkdirAll(l.cfg.work, 0o755); err != nil {
		return err
	}
	tier, err := os.MkdirTemp(l.cfg.work, "tier-")
	if err != nil {
		return err
	}
	l.tier = tier
	if err := artifact.Default.SetDir(tier); err != nil {
		return err
	}
	l.cold = l.cold[:0]
	for _, seed := range l.seeds {
		ltefp.ResetCache()
		res, err := experiments.TableIII(experiments.Quick(), seed)
		if err != nil {
			return err
		}
		l.cold = append(l.cold, sha256.Sum256([]byte(res.String())))
	}
	return nil
}

func (l *lab) close() error {
	if l.tier == "" {
		return nil
	}
	if err := artifact.Default.SetDir(""); err != nil {
		return err
	}
	ltefp.ResetCache()
	err := os.RemoveAll(l.tier)
	l.tier = ""
	return err
}

// op regenerates a table after dropping the store's memory tier, so a
// cold op simulates everything and a warm op reads everything from disk.
func (l *lab) op(i int) (outcome, error) {
	j := i % len(l.seeds)
	ltefp.ResetCache()
	res, err := experiments.TableIII(experiments.Quick(), l.seeds[j])
	if err != nil {
		return outcome{}, err
	}
	table := res.String()
	out := outcome{digest: sha256.Sum256([]byte(table)), store: artifact.Default.ReadStats().Total()}
	switch {
	case l.seeds[j] == 1 && table != l.golden:
		return out, fmt.Errorf("table differs from %s", goldenTable)
	case l.warm && out.store.Misses != 0:
		return out, fmt.Errorf("warm op computed %d artifacts", out.store.Misses)
	case l.warm && out.digest != l.cold[j]:
		return out, fmt.Errorf("warm table differs from the set-up's cold run")
	case !l.warm && out.store.Misses == 0:
		return out, fmt.Errorf("cold op computed nothing")
	}
	return out, nil
}

// labSpecs are TableIII's per-app campaigns at Quick scale.
func labSpecs(seed uint64) []fingerprint.CollectSpec {
	scale := experiments.Quick()
	apps := appmodel.Apps()
	out := make([]fingerprint.CollectSpec, len(apps))
	for i, app := range apps {
		sessions, dur := scale.VoipSessions, scale.VoipDur
		switch app.Category {
		case appmodel.Streaming:
			sessions, dur = scale.StreamSessions, scale.StreamDur
		case appmodel.Messaging:
			sessions, dur = scale.MsgSessions, scale.MsgDur
		}
		out[i] = fingerprint.CollectSpec{
			Profile:          operator.Lab(),
			App:              app,
			Sessions:         sessions,
			SessionDur:       dur,
			Seed:             seed + uint64(i+1)*7919,
			Sniffer:          sniffer.Config{CorruptProb: snifferCorruption},
			ApplyProfileLoss: true,
			Population:       scale.Population,
			Window:           fingerprint.DefaultWindow,
			Stride:           fingerprint.DefaultWindow,
		}
	}
	return out
}

// sessionScenario is the capture behind one numbered session of a
// campaign, as fingerprint.CollectTrace derives it.
func sessionScenario(spec fingerprint.CollectSpec, session int) capture.Scenario {
	return capture.Scenario{
		Seed:  spec.Seed*0x9E3779B9 + uint64(session)*0x85EBCA77 + 1,
		Cells: []capture.Cell{{ID: 1, Profile: spec.Profile}},
		Sessions: []capture.Session{{
			UE: "victim", CellID: 1, App: spec.App,
			Start: 500 * time.Millisecond, Duration: spec.SessionDur, Day: spec.Day,
		}},
		Population:       spec.Population,
		Sniffer:          spec.Sniffer,
		ApplyProfileLoss: spec.ApplyProfileLoss,
	}
}

// variantFilter maps a Table III column to its direction filter.
func variantFilter(v experiments.Variant) fingerprint.DirectionFilter {
	switch v {
	case experiments.Down:
		return fingerprint.DownlinkOnly
	case experiments.Up:
		return fingerprint.UplinkOnly
	}
	return fingerprint.AllDirections
}

// trainTest is TableIII's 80/20 split: each app's windows, pooled over
// sessions, shuffled by a generator seeded from the app's name.
func trainTest(app string, sessions [][][]float64) (train, test [][]float64) {
	var all [][]float64
	for _, s := range sessions {
		all = append(all, s...)
	}
	h := fnv.New64a()
	h.Write([]byte(app))
	rng := sim.NewRNG(h.Sum64())
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := len(all) * 4 / 5
	if cut < 1 && len(all) > 1 {
		cut = 1
	}
	return all[:cut], all[cut:]
}

// replay regenerates the table one call at a time. The cold replay
// captures every session through the cell replay, then windows, trains
// and evaluates each variant; the warm replay reads per-session window
// matrices and forests from the disk tier instead.
func (l *lab) replay(i int, tr *tracer) (outcome, error) {
	seed := l.seeds[i%len(l.seeds)]
	ltefp.ResetCache()
	specs := labSpecs(seed)
	var traces [][]trace.Trace
	if !l.warm {
		traces = make([][]trace.Trace, len(specs))
		for a, sp := range specs {
			for s := 0; s < sp.Sessions; s++ {
				id := tr.begin("capture", "capture.session")
				c, err := newCell(sessionScenario(sp, s), tr)
				if err != nil {
					return outcome{}, err
				}
				traces[a] = append(traces[a], c.capture("victim").victim)
				tr.end(id)
			}
		}
	}

	apps := appmodel.Apps()
	res := &experiments.TableIIIResult{Confusions: make(map[experiments.Variant]*metrics.Confusion)}
	for _, app := range apps {
		res.Rows = append(res.Rows, experiments.TableIIIRow{App: app.Name, Category: app.Category, Cells: make(map[experiments.Variant]experiments.PRF)})
	}
	for _, v := range experiments.Variants() {
		filter := variantFilter(v)
		ts := fingerprint.NewTrainingSet()
		test := make(map[string][][]float64, len(apps))
		for a, sp := range specs {
			sessions := make([][][]float64, sp.Sessions)
			for s := range sessions {
				if l.warm {
					id := tr.begin("artifact", "fingerprint.CollectWindows")
					m, err := fingerprint.CollectWindows(sp, s, filter)
					tr.end(id)
					if err != nil {
						return outcome{}, err
					}
					sessions[s] = m
					continue
				}
				id := tr.begin("features", "features.window")
				sessions[s] = fingerprint.WindowVectors(filter.Apply(traces[a][s]), sp.Window, sp.Stride)
				tr.end(id)
				tr.count("features.windows", float64(len(sessions[s])))
			}
			train, held := trainTest(apps[a].Name, sessions)
			if err := ts.Add(apps[a].Name, train); err != nil {
				return outcome{}, err
			}
			test[apps[a].Name] = held
			tr.count("forest.rows", float64(len(held)))
		}
		// TableIII's forest: the paper's 100 trees, seeded by the run.
		cfg := fingerprint.Config{Forest: forest.Config{Trees: 100, Seed: seed}}
		var clf *fingerprint.Classifier
		var err error
		if l.warm {
			id := tr.begin("artifact", "fingerprint.TrainCached")
			clf, err = fingerprint.TrainCached(ts, cfg)
			tr.end(id)
		} else {
			id := tr.begin("forest.train", "fingerprint.Train")
			clf, err = fingerprint.Train(ts, cfg)
			tr.end(id)
		}
		if err != nil {
			return outcome{}, err
		}
		id := tr.begin("forest.predict", "Classifier.Evaluate")
		conf, err := clf.Evaluate(test)
		tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		res.Confusions[v] = conf
		for i := range apps {
			res.Rows[i].Cells[v] = experiments.PRF{Precision: conf.Precision(i), Recall: conf.Recall(i), F1: conf.F1(i)}
		}
	}
	out := outcome{digest: sha256.Sum256([]byte(res.String())), store: artifact.Default.ReadStats().Total()}
	if l.warm && out.store.Misses != 0 {
		return out, fmt.Errorf("warm replay computed %d artifacts", out.store.Misses)
	}
	return out, nil
}
