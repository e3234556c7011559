package daemon

import (
	"reflect"
	"testing"
	"time"

	"ltefp/internal/lte/rnti"
	"ltefp/internal/snapshot"
	"ltefp/internal/stream"
)

// TestFinalsSectionRoundTrip pins the daemon.finals codec: the verdict
// summary saved at a checkpoint cut must decode back exactly, including
// users whose sessions ended long before the cut — the entries a
// restarted daemon cannot reconstruct from the stream alone.
func TestFinalsSectionRoundTrip(t *testing.T) {
	k1 := stream.Key{CellID: 1, RNTI: rnti.RNTI(0x17BE)}
	k2 := stream.Key{CellID: 1, RNTI: rnti.RNTI(0x0A61)}
	cr := &captureRun{
		latest: map[stream.Key]stream.Verdict{
			k1: {At: 90 * time.Second, Key: k1, App: "YouTube", Confidence: 0.875, Windows: 40},
			k2: {At: 3 * time.Second, Key: k2, App: "Skype", Confidence: 0.5, Windows: 6},
		},
		order: []stream.Key{k2, k1},
	}
	b := cr.encodeFinals()
	latest, order, err := decodeFinals(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(latest, cr.latest) {
		t.Errorf("latest mismatch: %v != %v", latest, cr.latest)
	}
	if !reflect.DeepEqual(order, cr.order) {
		t.Errorf("order mismatch: %v != %v", order, cr.order)
	}

	// An empty summary (checkpoint before the first verdict) must
	// round-trip to empty maps and a nil order.
	empty := &captureRun{
		latest: map[stream.Key]stream.Verdict{},
	}
	latest, order, err = decodeFinals(empty.encodeFinals())
	if err != nil {
		t.Fatal(err)
	}
	if len(latest) != 0 || order != nil {
		t.Errorf("empty summary decoded to %v / %v", latest, order)
	}
}

// TestFinalsSectionRejectsDamage pins that truncated payloads, and an
// entry whose two app slots disagree, error out instead of yielding a
// silently shorter or inconsistent summary.
func TestFinalsSectionRejectsDamage(t *testing.T) {
	k := stream.Key{CellID: 1, RNTI: rnti.RNTI(0x1234)}
	cr := &captureRun{
		latest: map[stream.Key]stream.Verdict{
			k: {At: time.Second, Key: k, App: "YouTube", Confidence: 1, Windows: 9},
		},
		order: []stream.Key{k},
	}
	b := cr.encodeFinals()
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := decodeFinals(b[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", cut, len(b))
		}
	}

	// The entry layout carries the app twice; a payload whose copies
	// differ is rejected, so the daemon ignores the checkpoint.
	e := snapshot.NewEncoder(64)
	e.Uvarint(1)
	e.Varint(int64(k.CellID))
	e.Uvarint(uint64(k.RNTI))
	e.Str("YouTube")
	e.Duration(time.Second)
	e.Str("Skype")
	e.F64(1)
	e.Varint(9)
	if _, _, err := decodeFinals(e.Bytes()); err == nil {
		t.Fatal("an entry with two different apps decoded without error")
	}
}
