package ltefp_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
	"time"

	"ltefp"
)

// hashRecords writes one line per record into h.
func hashRecords(h io.Writer, recs []ltefp.Record) {
	for _, r := range recs {
		fmt.Fprintf(h, "%v\n", r)
	}
}

// TestCaptureDigests pins the single-victim capture byte for byte: a
// SHA-256 over every validated record, the victim's attributed records,
// the identity bindings and the decode health, with and without the
// Fig. 9 background-app overlay, inside a background population.
func TestCaptureDigests(t *testing.T) {
	want := map[int]string{
		0: "7c962e2f3459cf1b519fa87f1df2953a2ad358451c9a4a0ce233ce65c7c3e078",
		3: "b2616d60ab1eca149360b763c27ccbd4b9493d07db1e24474fe42184b271e182",
	}
	for _, bg := range []int{0, 3} {
		res, err := ltefp.Capture(ltefp.CaptureOptions{
			Network:        "T-Mobile",
			App:            "WhatsApp",
			Duration:       15 * time.Second,
			Seed:           21,
			BackgroundApps: bg,
			Population:     15,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Victim) == 0 || len(res.All) <= len(res.Victim) {
			t.Fatalf("background %d: degenerate capture, %d victim of %d records", bg, len(res.Victim), len(res.All))
		}
		h := sha256.New()
		hashRecords(h, res.All)
		fmt.Fprintln(h, "victim")
		hashRecords(h, res.Victim)
		for _, b := range res.Bindings {
			fmt.Fprintf(h, "%v\n", b)
		}
		fmt.Fprintf(h, "health=%+v\n", res.Health)
		if got := hex.EncodeToString(h.Sum(nil)); got != want[bg] {
			t.Errorf("background %d: capture digest %s, want %s", bg, got, want[bg])
		}
	}
}

// TestLiveCaptureDigest pins the streaming path's verdicts on a noisy
// victim: every rolling verdict and retrain signal, plus the final stats.
func TestLiveCaptureDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fingerprinter")
	}
	fp := trainTiny(t)
	h := sha256.New()
	st, err := ltefp.LiveCapture(context.Background(), ltefp.LiveOptions{
		Capture: ltefp.CaptureOptions{
			App: "Skype", Duration: 20 * time.Second, Seed: 5,
			BackgroundApps: 4, Population: 10,
		},
		Model:     fp,
		OnVerdict: func(v ltefp.LiveVerdict) { fmt.Fprintf(h, "verdict %+v\n", v) },
		OnRetrain: func(v ltefp.LiveVerdict) { fmt.Fprintf(h, "retrain %+v\n", v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Verdicts == 0 {
		t.Fatal("live capture raised no verdicts")
	}
	fmt.Fprintf(h, "stats=%+v\n", *st)
	const want = "21af20bd0a531e59a6005c512c9bda45e39a6f7badb54ada42b836033907d5f5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("live digest %s, want %s", got, want)
	}
}
