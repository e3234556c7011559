package fingerprint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
func syntheticTrainingSet(t *testing.T) *fingerprint.TrainingSet {
	t.Helper()
	g := sim.NewRNG(11)
	ts := fingerprint.NewTrainingSet()
	for a, app := range appmodel.Apps() {
		vecs := make([][]float64, 40)
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
const saveDigestGolden = "1557526e176e178cdcf41eef82092d476078c47a255abdd108f8cca59b53d131"

// TestSaveBytesDigest pins the model file a fixed training run writes, and
// that loading it and saving again reproduces the same bytes.
func TestSaveBytesDigest(t *testing.T) {
	clf, err := fingerprint.Train(syntheticTrainingSet(t), fingerprint.Config{
		Forest: forest.Config{Trees: 7, Seed: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
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
