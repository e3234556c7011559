package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"time"

	"ltefp/internal/sim"
)

// keyRecipes feed each namespace the shapes of values its real key
// builder hashes — scalars, long %#v renderings, content keys, and long
// float runs — so a pinned key covers every primitive, buffer boundaries
// included.
var keyRecipes = []struct {
	namespace string
	feed      func(h *Hasher)
	want      string
}{
	{"ltefp-capture-key-v4", func(h *Hasher) {
		h.U64(42)
		h.Duration(2 * time.Second)
		h.U64(3)
		h.Bool(true)
		h.F64(0.01)
		h.F64(0.002)
		h.Bool(false)
		h.Bool(true)
		h.U64(1)
		h.U64(7)
		h.Str(strings.Repeat("operator.Profile{Name:\"T-Mobile\", PRBs:100}", 20))
		h.U64(2)
		h.Str("victim")
		h.U64(7)
		h.U64(0)
		h.Duration(0)
		h.Duration(90 * time.Second)
		h.U64(300)
		for i := 0; i < 300; i++ {
			h.Duration(time.Duration(i) * time.Millisecond)
			h.U64(uint64(i % 2))
			h.U64(uint64(100 + 37*i))
		}
		h.Str("bystander")
		h.U64(7)
		h.U64(1)
		h.Duration(time.Second)
		h.Duration(time.Minute)
		h.U64(^uint64(0))
		h.Str("YouTube")
		h.U64(0)
		h.U64(1)
		h.Str("victim")
		h.U64(8)
		h.Duration(30 * time.Second)
		h.Bool(true)
	}, "ed1101f68a63c1e00281b20d1bc649c91929d496f4edbc63dd7e82065fbfb3d2"},
	{"ltefp-windows-v1", func(h *Hasher) {
		var capKey [32]byte
		for i := range capKey {
			capKey[i] = byte(i * 7)
		}
		h.Bytes(capKey[:])
		h.Str("victim")
		h.U64(2)
		h.Duration(100 * time.Millisecond)
		h.Duration(50 * time.Millisecond)
		h.U64(3)
		h.Bytes(nil)
		h.Str("")
	}, "9507095c5b8cc4434f94de90f5342738207e7d2332004b647edc566290052344"},
	{"ltefp-dataset-v1", func(h *Hasher) {
		h.Str(strings.Repeat("operator.Profile{Name:\"Verizon\"}", 30))
		h.Str("sniffer.Config{LossProb:0.01, CorruptProb:0.002, DownlinkOnly:false}")
		h.I64(-3)
		h.U64(1)
		h.U64(1)
		h.Duration(100 * time.Millisecond)
		h.U64(3)
		h.I64(10000)
		h.U64(9)
		for i, app := range []string{"YouTube", "Netflix", "Prime", "WhatsApp", "Telegram", "Messenger", "Skype", "Zoom", "Teams"} {
			h.Str(app)
			h.I64(int64(8 + i))
			h.Duration(time.Duration(90+i) * time.Second)
		}
	}, "1451961457a8968d0f7bbf230331a93284967bc985f4b3f60c8ea868b5257e81"},
	{"ltefp-forest-v1", func(h *Hasher) {
		h.U64(3)
		h.Duration(100 * time.Millisecond)
		h.Duration(100 * time.Millisecond)
		h.Str("forest.Config{Trees:100, MaxDepth:0, MinLeaf:0, FeaturesPerSplit:0, SubsampleSize:0, Seed:0x1, Workers:0}")
		h.U64(2)
		g := sim.NewRNG(5)
		for _, app := range []string{"YouTube", "Zoom"} {
			h.Str(app)
			h.U64(97)
			for r := 0; r < 97; r++ {
				h.U64(25)
				for j := 0; j < 25; j++ {
					h.F64(g.Normal(float64(j), 3))
				}
			}
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64} {
			h.F64(v)
		}
	}, "e10eb0e6ee8733f517830bb6f99893894c10e2b0403a5d9c88dfbea46b666a77"},
}

// TestKeyPins pins one key per namespace. A key is a disk tier's file
// name, so a moved pin strands every entry written before it: change the
// namespace string instead of these values.
func TestKeyPins(t *testing.T) {
	for _, r := range keyRecipes {
		h := NewHasher(r.namespace)
		r.feed(h)
		k := h.Key()
		if got := hex.EncodeToString(k[:]); got != r.want {
			t.Errorf("%s: key %s, want %s", r.namespace, got, r.want)
		}
	}
}

// TestHasherMatchesStream: a key is the SHA-256 of the namespace line
// followed by every value in its documented fixed-width or
// length-prefixed form, for random sequences of every primitive.
func TestHasherMatchesStream(t *testing.T) {
	g := sim.NewRNG(9)
	for trial := 0; trial < 200; trial++ {
		h := NewHasher("stream-test")
		ref := sha256.New()
		ref.Write([]byte("stream-test\n"))
		word := func(v uint64) { ref.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for op := g.IntN(400); op > 0; op-- {
			switch g.IntN(7) {
			case 0:
				v := g.Uint64()
				h.U64(v)
				word(v)
			case 1:
				v := int64(g.Uint64())
				h.I64(v)
				word(uint64(v))
			case 2:
				v := g.Normal(0, 1e6)
				h.F64(v)
				word(math.Float64bits(v))
			case 3:
				v := g.Bool(0.5)
				h.Bool(v)
				if v {
					word(1)
				} else {
					word(0)
				}
			case 4:
				d := time.Duration(g.Uint64())
				h.Duration(d)
				word(uint64(d))
			case 5:
				s := strings.Repeat("x", g.IntN(700))
				h.Str(s)
				word(uint64(len(s)))
				ref.Write([]byte(s))
			default:
				b := make([]byte, g.IntN(1200))
				for i := range b {
					b[i] = byte(g.IntN(256))
				}
				h.Bytes(b)
				word(uint64(len(b)))
				ref.Write(b)
			}
		}
		k := h.Key()
		if want := ref.Sum(nil); hex.EncodeToString(k[:]) != hex.EncodeToString(want) {
			t.Fatalf("trial %d: key %x, stream %x", trial, k, want)
		}
	}
}
