package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
)

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(sim.NewRNG(7))
	for i := 0; i < 8; i++ {
		full := Backoff{Base: b.Base, Max: b.Max, Factor: b.Factor}.Delay(i)
		for trial := 0; trial < 50; trial++ {
			d := b.Delay(i)
			if d > full || d < full/2 {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", i, d, full/2, full)
			}
		}
	}
}

// TestRestartBudget drives the daemon's one failure path to exhaustion: a
// capture whose every run fails is restarted MaxRestarts times, waiting
// the backoff schedule in order, and then ends failed with /healthz
// degraded.
func TestRestartBudget(t *testing.T) {
	const maxRestarts = 3
	var slept []time.Duration
	d, err := New(Config{
		// The runs fail before classifying anything, so an untrained
		// classifier suffices.
		Classifier:     &fingerprint.Classifier{},
		Specs:          []Spec{{Name: "x", App: "YouTube", Duration: 2 * time.Second}},
		MaxRestarts:    maxRestarts,
		Metrics:        obs.NewRegistry(),
		RestartBackoff: NewBackoff(sim.NewRNG(9)),
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A scenario without cells fails in capture.NewLive on every run.
	d.caps[0].scenario.Cells = nil
	if err := d.Run(context.Background()); err == nil {
		t.Fatal("Run reported no error for a capture that never ran")
	}

	// Every run fails: the first run plus maxRestarts restarts. The
	// restart counters count restarts, not failed runs, and each sleep
	// precedes one restart.
	if got := d.caps[0].restarts; got != maxRestarts {
		t.Errorf("restarts = %d, want %d", got, maxRestarts)
	}
	ref := NewBackoff(sim.NewRNG(9))
	if len(slept) != maxRestarts {
		t.Fatalf("slept %d times, want %d", len(slept), maxRestarts)
	}
	for i, got := range slept {
		if want := ref.Delay(i); got != want {
			t.Errorf("sleep %d = %v, want Delay(%d) = %v", i, got, i, want)
		}
	}
	if got := d.restartsC.Value(); got != maxRestarts {
		t.Errorf("capture_restarts counter = %d, want %d (one per restart)", got, maxRestarts)
	}

	rec := httptest.NewRecorder()
	d.Handlers()["/healthz"].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/healthz status %d, want %d", rec.Code, http.StatusServiceUnavailable)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Captures) != 1 {
		t.Fatalf("healthz = %+v, want one degraded capture", h)
	}
	cs := h.Captures[0]
	if cs.State != StateFailed || cs.LastErr == "" || cs.Restarts != maxRestarts {
		t.Errorf("capture status %+v, want failed with last_error set and %d restarts", cs, maxRestarts)
	}
}
