package fingerprint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/ml/forest"
	"ltefp/internal/sim"
)

// syntheticTrainingSet builds a fixed training set without a capture:
// every app gets 40 window vectors whose means depend on the app, so the
// trees split on real signal.
func syntheticTrainingSet(t testing.TB) *fingerprint.TrainingSet {
	return syntheticRows(t, 40)
}

// syntheticRows is syntheticTrainingSet with rows window vectors per app.
func syntheticRows(t testing.TB, rows int) *fingerprint.TrainingSet {
	t.Helper()
	g := sim.NewRNG(11)
	ts := fingerprint.NewTrainingSet()
	for a, app := range appmodel.Apps() {
		vecs := make([][]float64, rows)
		for i := range vecs {
			v := make([]float64, features.TotalDim)
			for j := range v {
				v[j] = g.Normal(float64((a+1)*(j%4)), 2)
			}
			vecs[i] = v
		}
		if err := ts.Add(app.Name, vecs); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

// saveDigestGolden is the SHA-256 of Save's bytes for the synthetic
// training run below. It pins the model-file layout and the trained trees
// together: do not update it to make the test pass.
const saveDigestGolden = "da3cfc996c50d80f4dfd7f1511d3fe2d6c396f4f0e0948b3694f91ffd7209700"

// v1DigestGolden is the SHA-256 of testdata/model_v1.bin: the model file
// the same training run wrote in the v1 forest layout, before v2.
const v1DigestGolden = "1557526e176e178cdcf41eef82092d476078c47a255abdd108f8cca59b53d131"

// syntheticClassifier trains the fixed run whose model file is pinned.
func syntheticClassifier(t *testing.T) *fingerprint.Classifier {
	t.Helper()
	clf, err := fingerprint.Train(syntheticTrainingSet(t), fingerprint.Config{
		Forest: forest.Config{Trees: 7, Seed: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestSaveBytesDigest pins the model file a fixed training run writes, and
// that loading it and saving again reproduces the same bytes.
func TestSaveBytesDigest(t *testing.T) {
	clf := syntheticClassifier(t)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != saveDigestGolden {
		t.Errorf("Save digest %s, want %s", got, saveDigestGolden)
	}

	loaded, err := fingerprint.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("Save after Load wrote different bytes")
	}
}

// TestLoadV1ModelFile: the model file the synthetic run wrote in the v1
// layout still loads, predicts exactly what the freshly trained
// classifier predicts, and saves as the v2 file that classifier saves.
func TestLoadV1ModelFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "model_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != v1DigestGolden {
		t.Fatalf("fixture digest %s, want %s", got, v1DigestGolden)
	}
	loaded, err := fingerprint.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	clf := syntheticClassifier(t)
	g := sim.NewRNG(3)
	for _, app := range appmodel.Apps() {
		vecs := make([][]float64, 60)
		for i := range vecs {
			v := make([]float64, features.TotalDim)
			for j := range v {
				v[j] = g.Normal(float64(j%5), 4)
			}
			vecs[i] = v
		}
		want, got := clf.PredictBatch(vecs), loaded.PredictBatch(vecs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: v1 model predicts %s, trained %s", app.Name, i, got[i], want[i])
			}
		}
	}
	var fresh, resaved bytes.Buffer
	if err := clf.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), resaved.Bytes()) {
		t.Fatal("v1 model file re-saves to different bytes than the trained classifier")
	}
}

// trainingKeyGolden is TrainingKey of the synthetic training run above: a
// forest-tier key served from disk, so it must not move without a
// namespace bump.
const trainingKeyGolden = "0c2242c2de6690e39e7625f013c8c42932f751ef60f62c1a5b8a4a8e9fc7a4b5"

func TestTrainingKeyPin(t *testing.T) {
	k := fingerprint.TrainingKey(syntheticTrainingSet(t), fingerprint.Config{
		Forest: forest.Config{Trees: 7, Seed: 2, Workers: 2},
	})
	if got := hex.EncodeToString(k[:]); got != trainingKeyGolden {
		t.Errorf("TrainingKey %s, want %s", got, trainingKeyGolden)
	}
}

// BenchmarkTrainingKey measures keying a lab-sized training set (9 apps ×
// 2000 window vectors), the hashing every warm training lookup pays.
func BenchmarkTrainingKey(b *testing.B) {
	ts := syntheticRows(b, 2000)
	cfg := fingerprint.Config{Forest: forest.Config{Trees: 100, Seed: 1}}
	b.SetBytes(int64(9 * 2000 * features.TotalDim * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint.TrainingKey(ts, cfg)
	}
}
