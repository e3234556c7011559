package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"ltefp/internal/attack/correlation"
	"ltefp/internal/stream"
	"ltefp/internal/trace"
)

// CaptureStatus is one capture's /healthz entry.
type CaptureStatus struct {
	Name     string        `json:"name"`
	State    State         `json:"state"`
	Restarts int           `json:"restarts"`
	Restored bool          `json:"restored"`
	LastErr  string        `json:"last_error,omitempty"`
	Now      time.Duration `json:"now_ns"`

	Records  int64 `json:"records"`
	Rows     int64 `json:"rows"`
	Verdicts int64 `json:"verdicts"`
	Users    int   `json:"users"`

	CheckpointAt   time.Duration `json:"checkpoint_at_ns"`
	CheckpointSize int64         `json:"checkpoint_bytes"`
	// CheckpointRejected is why the capture last refused its checkpoint
	// and started fresh.
	CheckpointRejected string `json:"checkpoint_rejected,omitempty"`

	Candidates int64 `json:"sniffer_candidates"`
	Captured   int64 `json:"sniffer_captured"`
	Dropped    int64 `json:"sniffer_dropped"`
}

// Health is the /healthz payload.
type Health struct {
	Status   string          `json:"status"`
	Captures []CaptureStatus `json:"captures"`
}

// health snapshots every capture.
func (d *Daemon) health() Health {
	h := Health{Status: "ok"}
	for _, cr := range d.caps {
		cr.mu.Lock()
		cs := CaptureStatus{
			Name:               cr.spec.Name,
			State:              cr.state,
			Restarts:           cr.restarts,
			Restored:           cr.restored,
			Now:                cr.now,
			Records:            cr.stats.Records,
			Rows:               cr.stats.Rows,
			Verdicts:           cr.stats.Verdicts,
			Users:              cr.stats.Users,
			CheckpointAt:       cr.ckptAt,
			CheckpointSize:     cr.ckptSize,
			CheckpointRejected: cr.ckptRejected,
			Candidates:         cr.health.Candidates,
			Captured:           cr.health.Captured,
			Dropped:            cr.health.Dropped,
		}
		if cr.lastErr != nil {
			cs.LastErr = cr.lastErr.Error()
		}
		if cr.state == StateFailed {
			h.Status = "degraded"
		}
		cr.mu.Unlock()
		h.Captures = append(h.Captures, cs)
	}
	return h
}

// VerdictEntry is one user's latest verdict in the /verdicts payload.
type VerdictEntry struct {
	Capture    string        `json:"capture"`
	CellID     int           `json:"cell"`
	RNTI       uint16        `json:"rnti"`
	At         time.Duration `json:"at_ns"`
	App        string        `json:"app"`
	Confidence float64       `json:"confidence"`
	Windows    int           `json:"windows"`
}

// verdicts snapshots the latest verdict of every tracked user, sorted by
// (capture, cell, RNTI).
func (d *Daemon) verdicts() []VerdictEntry {
	var out []VerdictEntry
	for _, cr := range d.caps {
		cr.mu.Lock()
		keys := make([]stream.Key, 0, len(cr.latest))
		for k := range cr.latest {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].CellID != keys[j].CellID {
				return keys[i].CellID < keys[j].CellID
			}
			return keys[i].RNTI < keys[j].RNTI
		})
		for _, k := range keys {
			v := cr.latest[k]
			out = append(out, VerdictEntry{
				Capture:    cr.spec.Name,
				CellID:     k.CellID,
				RNTI:       uint16(k.RNTI),
				At:         v.At,
				App:        v.App,
				Confidence: v.Confidence,
				Windows:    v.Windows,
			})
		}
		cr.mu.Unlock()
	}
	return out
}

// SweepContact is one contact pair in the /sweep payload.
type SweepContact struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Similarity float64 `json:"similarity"`
}

// SweepResult is the /sweep payload.
type SweepResult struct {
	Users    int            `json:"users"`
	Start    time.Duration  `json:"start_ns"`
	End      time.Duration  `json:"end_ns"`
	Contacts []SweepContact `json:"contacts"`
}

// sweep runs cross-capture contact discovery over the retained record
// tails: every tracked user across every capture, compared pairwise over
// the common trailing span.
func (d *Daemon) sweep(minSim float64, topK int) (*SweepResult, error) {
	var users []correlation.UserTrace
	end := time.Duration(-1)
	for _, cr := range d.caps {
		cr.mu.Lock()
		if len(cr.tail) > 0 && (end < 0 || cr.now < end) {
			end = cr.now
		}
		keys := make([]stream.Key, 0, len(cr.tail))
		for k := range cr.tail {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].CellID != keys[j].CellID {
				return keys[i].CellID < keys[j].CellID
			}
			return keys[i].RNTI < keys[j].RNTI
		})
		for _, k := range keys {
			users = append(users, correlation.UserTrace{
				ID:    fmt.Sprintf("%s/cell%d/0x%04X", cr.spec.Name, k.CellID, uint16(k.RNTI)),
				Trace: append(trace.Trace(nil), cr.tail[k]...),
			})
		}
		cr.mu.Unlock()
	}
	if len(users) < 2 || end <= 0 {
		return &SweepResult{Users: len(users)}, nil
	}
	start := end - tailSpan
	if start < 0 {
		start = 0
	}
	contacts, err := correlation.Sweep(users, correlation.SweepConfig{
		Start:         start,
		End:           end,
		MinSimilarity: minSim,
		TopK:          topK,
	})
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Users: len(users), Start: start, End: end}
	for _, c := range contacts {
		res.Contacts = append(res.Contacts, SweepContact{
			A:          users[c.A].ID,
			B:          users[c.B].ID,
			Similarity: c.Evidence.Similarity,
		})
	}
	return res, nil
}

// Handlers returns the daemon's HTTP surface, for mounting next to the
// obs debug endpoints via obs.StartDebugServerWith.
func (d *Daemon) Handlers() map[string]http.Handler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	return map[string]http.Handler{
		"/healthz": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			h := d.health()
			if h.Status != "ok" {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			writeJSON(w, h)
		}),
		"/verdicts": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, d.verdicts())
		}),
		"/sweep": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			minSim := 0.0
			if s := r.URL.Query().Get("min"); s != "" {
				if _, err := fmt.Sscanf(s, "%g", &minSim); err != nil {
					http.Error(w, "bad min: "+err.Error(), http.StatusBadRequest)
					return
				}
			}
			topK := 0
			if s := r.URL.Query().Get("topk"); s != "" {
				if _, err := fmt.Sscanf(s, "%d", &topK); err != nil {
					http.Error(w, "bad topk: "+err.Error(), http.StatusBadRequest)
					return
				}
			}
			res, err := d.sweep(minSim, topK)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, res)
		}),
	}
}
