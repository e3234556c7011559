package daemon

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/snapshot"
	"ltefp/internal/stream"
)

// sectionDaemonLayout holds the checkpoint layout revision a file was
// written in, one uvarint; a file without it is layout 1. A checkpoint of
// another layout than checkpointLayout, the one this build writes, is
// ignored and its capture starts fresh.
const (
	sectionDaemonLayout = "daemon.layout"
	checkpointLayout    = 2
)

// sectionDaemonMeta binds a checkpoint file to the capture that wrote it:
// restoring under a different spec or pipeline geometry is rejected.
const sectionDaemonMeta = "daemon.meta"

// sectionDaemonFinals carries the capture's verdict summary — the latest
// verdict of every user seen so far, in first-seen order. The stream
// checkpoint only covers users still active at the cut; without this
// section a restarted daemon would forget users whose sessions ended
// before the checkpoint and print incomplete finals.
const sectionDaemonFinals = "daemon.finals"

// checkpointPath names a capture's checkpoint file.
func checkpointPath(dir, name string) string {
	return filepath.Join(dir, name+".ckpt")
}

// encodeMeta serialises the restore-compatibility key: the spec and the
// pipeline parameters that must match for a resume to be sound.
func (d *Daemon) encodeMeta(cr *captureRun) []byte {
	e := snapshot.NewEncoder(128)
	s := cr.spec
	e.Str(s.Name)
	e.Str(s.Network)
	e.Str(s.App)
	e.Duration(s.Duration)
	e.U64(s.Seed)
	e.Varint(int64(s.Day))
	e.Bool(s.DownlinkOnly)
	e.Varint(int64(s.BackgroundApps))
	e.Duration(d.cfg.Slice)
	e.Duration(d.cfg.CheckpointEvery)
	return e.Bytes()
}

// encodeFinals serialises the verdict summary at the checkpoint cut.
// OnCheckpoint fires on the goroutine that raises verdicts, after every
// verdict before the cut and before any after it, so the maps are a
// consistent cut.
func (cr *captureRun) encodeFinals() []byte {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	e := snapshot.NewEncoder(64 + 48*len(cr.order))
	e.Uvarint(uint64(len(cr.order)))
	for _, k := range cr.order {
		v := cr.latest[k]
		e.Varint(int64(k.CellID))
		e.Uvarint(uint64(k.RNTI))
		e.Duration(v.At)
		e.Str(v.App)
		e.F64(v.Confidence)
		e.Varint(int64(v.Windows))
	}
	return e.Bytes()
}

// decodeFinals rebuilds the verdict summary map from a checkpoint.
func decodeFinals(b []byte) (latest map[stream.Key]stream.Verdict, order []stream.Key, err error) {
	d := snapshot.NewDecoder(b)
	n := d.Count(8)
	latest = make(map[stream.Key]stream.Verdict, n)
	for i := 0; i < n; i++ {
		k := stream.Key{CellID: int(d.Varint()), RNTI: rnti.RNTI(d.Uvarint())}
		v := stream.Verdict{Key: k}
		v.At = d.Duration()
		v.App = d.Str()
		v.Confidence = d.F64()
		v.Windows = int(d.Varint())
		if d.Err() != nil {
			break
		}
		if _, dup := latest[k]; dup {
			return nil, nil, fmt.Errorf("daemon: finals: duplicate user %v", k)
		}
		latest[k] = v
		order = append(order, k)
	}
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("daemon: finals: %w", err)
	}
	return latest, order, nil
}

// classifierSections lazily encodes the classifier once; every capture's
// every checkpoint reuses the cached payloads instead of re-encoding the
// forests.
func (d *Daemon) classifierSections() map[string][]byte {
	d.outMu.Lock() // reuse the small daemon-wide lock; encoding happens once
	defer d.outMu.Unlock()
	if d.modelSections == nil {
		d.modelSections = d.cfg.Classifier.Sections()
	}
	return d.modelSections
}

// writeCheckpoint persists one checkpoint atomically: full container to a
// temp file, fsync, rename over the live name. A crash mid-write leaves
// the previous checkpoint intact; a crash mid-rename leaves one of the
// two — never a torn file.
func (d *Daemon) writeCheckpoint(cr *captureRun, c *stream.Checkpoint) {
	t := d.ckptMS.Start()
	defer t.Stop()
	n, err := d.writeCheckpointFile(cr, c)
	if err != nil {
		d.printf("[%s] checkpoint at %v failed: %v\n", cr.spec.Name, c.Now, err)
		cr.mu.Lock()
		cr.lastErr = err
		cr.mu.Unlock()
		return
	}
	d.ckptWrites.Inc()
	d.ckptBytes.Add(n)
	cr.mu.Lock()
	cr.ckptAt = c.Now
	cr.ckptSize = n
	cr.mu.Unlock()
}

// writeCheckpointFile builds and atomically installs the container via
// snapshot.WriteFileAtomic (unique temp + fsync + rename), so a crash or
// a concurrent writer can never leave a torn checkpoint behind.
func (d *Daemon) writeCheckpointFile(cr *captureRun, c *stream.Checkpoint) (int64, error) {
	model := d.classifierSections()
	layout := snapshot.NewEncoder(1)
	layout.Uvarint(checkpointLayout)
	return snapshot.WriteFileAtomic(cr.ckptPath, func(w *snapshot.Writer) error {
		if err := w.Section(sectionDaemonLayout, layout.Bytes()); err != nil {
			return err
		}
		if err := w.Section(sectionDaemonMeta, d.encodeMeta(cr)); err != nil {
			return err
		}
		if err := w.Section(sectionDaemonFinals, cr.encodeFinals()); err != nil {
			return err
		}
		names := make([]string, 0, len(model))
		for name := range model {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := w.Section(name, model[name]); err != nil {
				return err
			}
		}
		return c.AppendTo(w)
	})
}

// restoreState is everything a checkpoint file yields: the stream
// pipeline cut plus the daemon's own verdict summary at that cut.
type restoreState struct {
	ck     *stream.Checkpoint
	latest map[stream.Key]stream.Verdict
	order  []stream.Key
}

// loadCheckpoint reads a capture's checkpoint if one exists and is
// compatible. Incompatible, corrupt, or old-format files are counted,
// reported, and ignored — the capture starts fresh rather than resuming
// into wrong state.
func (d *Daemon) loadCheckpoint(cr *captureRun) *restoreState {
	if cr.ckptPath == "" {
		return nil
	}
	f, err := os.Open(cr.ckptPath)
	if err != nil {
		return nil // no checkpoint yet
	}
	defer f.Close()
	rs, err := d.decodeCheckpoint(cr, f)
	if err != nil {
		d.rejectCheckpoint(cr, err)
		return nil
	}
	cr.mu.Lock()
	cr.ckptAt = rs.ck.Now
	cr.mu.Unlock()
	return rs
}

// rejectCheckpoint counts and reports a checkpoint the capture will not
// resume from, and keeps the reason for /healthz.
func (d *Daemon) rejectCheckpoint(cr *captureRun, err error) {
	d.ckptRejects.Inc()
	cr.mu.Lock()
	cr.ckptRejected = err.Error()
	cr.mu.Unlock()
	d.printf("[%s] ignoring checkpoint %s: %v; starting fresh\n", cr.spec.Name, cr.ckptPath, err)
}

// decodeCheckpoint validates and decodes one checkpoint container.
func (d *Daemon) decodeCheckpoint(cr *captureRun, f *os.File) (*restoreState, error) {
	sections, err := snapshot.ReadAll(f)
	if err != nil {
		return nil, err
	}
	layout := uint64(1)
	if b, ok := sections[sectionDaemonLayout]; ok {
		dec := snapshot.NewDecoder(b)
		layout = dec.Uvarint()
		if err := dec.Finish(); err != nil {
			return nil, fmt.Errorf("checkpoint layout: %w", err)
		}
	}
	if layout != checkpointLayout {
		return nil, fmt.Errorf("checkpoint layout %d, this build reads %d", layout, checkpointLayout)
	}
	meta, ok := sections[sectionDaemonMeta]
	if !ok {
		return nil, fmt.Errorf("missing section %q", sectionDaemonMeta)
	}
	if !bytes.Equal(meta, d.encodeMeta(cr)) {
		return nil, fmt.Errorf("capture spec or pipeline parameters changed since the checkpoint was written")
	}
	// The embedded model must decode, and be the running model. It is
	// compared by content, re-encoded in the current layout, so a
	// checkpoint whose model an older binary wrote in an older layout
	// still restores.
	embedded, err := fingerprint.FromSections(sections)
	if err != nil {
		return nil, fmt.Errorf("embedded model: %w", err)
	}
	model := d.classifierSections()
	for name, got := range embedded.Sections() {
		if !bytes.Equal(got, model[name]) {
			return nil, fmt.Errorf("trained model changed since the checkpoint was written (section %q)", name)
		}
	}
	c, err := stream.ReadCheckpoint(sections)
	if err != nil {
		return nil, err
	}
	if c.Now <= 0 || c.Now%d.cfg.Slice != 0 {
		return nil, fmt.Errorf("checkpoint time %v is not on the %v slice grid", c.Now, d.cfg.Slice)
	}
	finals, ok := sections[sectionDaemonFinals]
	if !ok {
		return nil, fmt.Errorf("missing section %q", sectionDaemonFinals)
	}
	latest, order, err := decodeFinals(finals)
	if err != nil {
		return nil, err
	}
	return &restoreState{ck: c, latest: latest, order: order}, nil
}
