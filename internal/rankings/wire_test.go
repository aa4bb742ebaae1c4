package rankings

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func TestRankingGobRoundTrip(t *testing.T) {
	indexed := MustNew(42, []Item{5, 3, 9, 1})
	indexed.Index()
	plain := MustNew(-7, []Item{2, 4})

	for _, tc := range []struct {
		name string
		r    *Ranking
	}{
		{"indexed", indexed},
		{"unindexed", plain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tc.r); err != nil {
				t.Fatalf("encode: %v", err)
			}
			var got *Ranking
			if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.ID != tc.r.ID {
				t.Fatalf("id: got %d want %d", got.ID, tc.r.ID)
			}
			if !reflect.DeepEqual(got.Items, tc.r.Items) {
				t.Fatalf("items: got %v want %v", got.Items, tc.r.Items)
			}
			// Whatever the source's state, the ranking arrives indexed,
			// and the derived state is rebuilt, not merely flagged:
			// distances through the merged-pass kernel must agree.
			if !got.Indexed() {
				t.Fatal("decoded ranking is not indexed")
			}
			if d, want := Footrule(got, tc.r), 0; d != want {
				t.Fatalf("footrule after round trip: got %d want %d", d, want)
			}
			tc.r.Index()
			gotSig, gotPop := got.Signature()
			wantSig, wantPop := tc.r.Signature()
			if gotSig != wantSig || gotPop != wantPop {
				t.Fatalf("signature not rebuilt on decode")
			}
		})
	}
}

func TestRankingGobInsideSlices(t *testing.T) {
	rs := []*Ranking{MustNew(1, []Item{1, 2, 3}), MustNew(2, []Item{3, 2, 1})}
	for _, r := range rs {
		r.Index()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rs); err != nil {
		t.Fatalf("encode slice: %v", err)
	}
	var got []*Ranking
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode slice: %v", err)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 || !got[0].Indexed() {
		t.Fatalf("slice round trip mismatch: %v", got)
	}
}

// TestDecodeRejects: the one decoder refuses everything New refuses
// and every byte string that is not the canonical spelling of a
// ranking — through GobDecode (exchange frames) as much
// as through DecodeWire. The first three are what GobDecode used to
// let into a join.
func TestDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire []byte // id | count | items
	}{
		{"empty ranking", []byte{2, 0}},
		{"duplicate item", []byte{2, 2, 6, 6}},
		{"item above int32", []byte{2, 1, 0x80, 0x80, 0x80, 0x80, 0x10}}, // 1<<31
		{"item below int32", []byte{2, 1, 0x81, 0x80, 0x80, 0x80, 0x10}}, // -(1<<31)-1
		{"no bytes", nil},
		{"truncated items", []byte{2, 3, 6}},
		{"count beyond payload", []byte{2, 200, 1, 6}},
		{"padded id", []byte{0x82, 0x00, 1, 6}},
		{"padded item", []byte{2, 1, 0x86, 0x00}},
		{"overlong varint", bytes.Repeat([]byte{0xFF}, 11)},
	} {
		var r Ranking
		if _, err := r.DecodeWire(tc.wire); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeWire(%s) = %v, want ErrCorrupt", tc.name, err)
		}
		if err := r.GobDecode(tc.wire); !errors.Is(err, ErrCorrupt) {
			t.Errorf("GobDecode(%s) = %v, want ErrCorrupt", tc.name, err)
		}
	}
	var r Ranking
	good := MustNew(1, []Item{3}).AppendWire(nil)
	if n, err := r.DecodeWire(append(good, 0xAA)); err != nil || n != len(good) {
		t.Errorf("DecodeWire with a following byte took %d of %d bytes, err %v", n, len(good), err)
	}
	if err := r.GobDecode(append(good, 0xAA)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("GobDecode with a trailing byte = %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodeRankings([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 2, 1, 6}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeRankings with a count the input cannot hold = %v, want ErrCorrupt", err)
	}
}

// Golden vectors of format generation 2; the fuzz targets seed from
// them. A change here is a format change: bump WireVersion.
const (
	goldenRanking = "54030a0605" // id 42, items 5 3 -3
	goldenFrame   = "0554030a060527636654"
)

func TestGoldenWire(t *testing.T) {
	r := MustNew(42, []Item{5, 3, -3})
	if got := hex.EncodeToString(r.AppendWire(nil)); got != goldenRanking {
		t.Errorf("ranking encodes as %s, golden %s", got, goldenRanking)
	}
	if got := hex.EncodeToString(EndFrame(r.AppendWire(nil), 0)); got != goldenFrame {
		t.Errorf("frame encodes as %s, golden %s", got, goldenFrame)
	}
	frame, _ := hex.DecodeString(goldenFrame)
	payload, n, err := ReadFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("ReadFrame(golden) = %d bytes, %v", n, err)
	}
	var back Ranking
	if _, err := back.DecodeWire(payload); err != nil || back.ID != 42 || !Equal(&back, r) {
		t.Fatalf("golden decodes as %v, %v", &back, err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadFrame(frame[:cut]); !errors.Is(err, ErrTorn) {
			t.Errorf("frame cut at %d: %v, want ErrTorn", cut, err)
		}
	}
	frame[3] ^= 1
	if _, _, err := ReadFrame(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit-flipped frame: %v, want ErrCorrupt", err)
	}
}

// TestEncodeAllocFree: encoding into a buffer with room allocates
// nothing, which is what lets the WAL encode into its writer's buffer.
func TestEncodeAllocFree(t *testing.T) {
	r := MustNew(1<<40, []Item{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		buf = EndFrame(r.AppendWire(buf[:0]), 0)
	}); n != 0 {
		t.Fatalf("AppendWire+EndFrame into a reused buffer: %v allocs/op, want 0; find it with: go build -gcflags=-m ./internal/rankings 2>&1 | grep -E 'escapes|moved to heap'", n)
	}
}

func TestRankingJSON(t *testing.T) {
	r := MustNew(7, []Item{9, 8})
	got, err := json.Marshal(struct {
		Rankings []*Ranking `json:"rankings"`
	}{[]*Ranking{r}})
	if want := `{"rankings":[{"id":7,"items":[9,8]}]}`; err != nil || string(got) != want {
		t.Fatalf("marshal = %s, %v; want %s", got, err, want)
	}
	var back Ranking
	if err := json.Unmarshal([]byte(`{"id":7,"items":[9,8]}`), &back); err != nil || back.ID != 7 || !Equal(&back, r) {
		t.Fatalf("unmarshal = %v, %v", &back, err)
	}
	for _, bad := range []string{
		`{"id":1}`, `{"id":1,"items":[]}`, `{"id":1,"items":[2,2]}`, `null`,
		`{"id":1,"items":[2],"extra":0}`, `{"id":1,"items":[2147483648]}`,
	} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("unmarshal accepted %s", bad)
		}
	}
}
