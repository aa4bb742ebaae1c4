package cluster

import (
	"encoding/hex"
	"encoding/json"
	"testing"

	"rankjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil/wirecheck"
)

// goldenShuffleFrame pins RKX2: job "j0-1", collective 7, src 2,
// payload "hi" (hand-assembled, CRC computed outside this repository).
const goldenShuffleFrame = "524b5832" + "09" + "046a302d31" + "0e" + "02" + "6869" + "e9e7576e"

func TestGoldenShuffleFrame(t *testing.T) {
	got := hex.EncodeToString(encodeFrame(frame{Job: "j0-1", Collective: 7, Src: 2, Payload: []byte("hi")}))
	if got != goldenShuffleFrame {
		t.Fatalf("frame encodes as %s, golden %s", got, goldenShuffleFrame)
	}
}

func TestJoinStartRoundTrip(t *testing.T) {
	rs := []*rankings.Ranking{rankings.MustNew(1, []rankings.Item{1, 2, 3}), rankings.MustNew(-2, []rankings.Item{3, 2, 1})}
	opts := rankjoin.Options{Algorithm: rankjoin.AlgCLP, Theta: 0.25, Stats: true}
	body, err := encodeJoinStart("j1-4", opts, rs)
	if err != nil {
		t.Fatal(err)
	}
	hdr, got, err := decodeJoinStart(body)
	if err != nil || hdr.Job != "j1-4" || hdr.Opts != opts || len(got) != 2 {
		t.Fatalf("decodeJoinStart = %+v, %v, %v", hdr, got, err)
	}
	for i := range rs {
		if got[i].ID != rs[i].ID || !rankings.Equal(got[i], rs[i]) || !got[i].Indexed() {
			t.Fatalf("ranking %d came back as %v (indexed %v)", i, got[i], got[i].Indexed())
		}
	}
}

// sealed wraps payload as rankings.Unseal expects it; the fuzz targets
// use it to get mutated payloads past the CRC.
func sealed(magic string, payload []byte) []byte {
	return rankings.EndFrame(append([]byte(magic), payload...), len(magic))
}

// joinStartWith builds a join-start body around a hand-written dataset
// section.
func joinStartWith(dataset []byte) []byte {
	hdr, _ := json.Marshal(joinHeader{Job: "j"})
	payload := append([]byte{byte(len(hdr))}, hdr...)
	return sealed(joinMagic, append(payload, dataset...))
}

// TestJoinStartRejectsInvalidRankings: a join-start body used to be
// able to carry an empty ranking, duplicate items, or an item id that
// wrapped on its way into an int32 — into joins that assume none of
// the three.
func TestJoinStartRejectsInvalidRankings(t *testing.T) {
	if _, rs, err := decodeJoinStart(joinStartWith([]byte{1, 2, 1, 6})); err != nil || len(rs) != 1 {
		t.Fatalf("well-formed body refused: %v", err)
	}
	for name, dataset := range map[string][]byte{
		"empty ranking":   {1, 2, 0},
		"duplicate items": {1, 2, 2, 6, 6},
		"wrapped item":    {1, 2, 1, 0x80, 0x80, 0x80, 0x80, 0x20}, // 1<<32, int32(…) == 0
		"count too large": {200, 2, 1, 6},
		"trailing bytes":  {1, 2, 1, 6, 0},
	} {
		if _, _, err := decodeJoinStart(joinStartWith(dataset)); err == nil {
			t.Errorf("%s: join-start accepted", name)
		}
	}
	good, _ := encodeJoinStart("j", rankjoin.Options{}, nil)
	for name, body := range map[string][]byte{
		"generation 1":      append([]byte("RKJ1"), good[4:]...),
		"truncated":         good[:len(good)-1],
		"respelled header":  sealed(joinMagic, append([]byte{13}, `{"job": "j"} `...)),
		"unknown header":    sealed(joinMagic, append([]byte{17}, `{"job":"j","x":1}`...)),
		"header length lie": sealed(joinMagic, []byte{200, 1, '{', '}'}),
	} {
		if _, _, err := decodeJoinStart(body); err == nil {
			t.Errorf("%s: join-start accepted", name)
		}
	}
}

func FuzzShuffleFrame(f *testing.F) {
	golden, _ := hex.DecodeString(goldenShuffleFrame)
	f.Add(golden)
	f.Add(golden[5 : len(golden)-4]) // its payload
	f.Add([]byte("RKX1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(body []byte) ([]byte, error) {
			fr, err := decodeFrame(body)
			return encodeFrame(fr), err
		}
		wirecheck.Decoder(t, data, decode)
		wirecheck.Decoder(t, sealed(frameMagic, data), decode)
	})
}

func FuzzJoinStart(f *testing.F) {
	good, _ := encodeJoinStart("j0-1", rankjoin.Options{Algorithm: rankjoin.AlgVJ, Theta: 0.3},
		[]*rankings.Ranking{rankings.MustNew(42, []rankings.Item{5, 3, -3}), rankings.MustNew(-1, []rankings.Item{7, 8, 9})})
	f.Add(good)
	f.Add(good[6 : len(good)-4]) // its payload (the frame's length prefix is two bytes)
	f.Add([]byte("RKJ1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(body []byte) ([]byte, error) {
			hdr, rs, err := decodeJoinStart(body)
			if err != nil {
				return nil, err
			}
			return encodeJoinStart(hdr.Job, hdr.Opts, rs)
		}
		wirecheck.Decoder(t, data, decode)
		wirecheck.Decoder(t, sealed(joinMagic, data), decode)
	})
}
