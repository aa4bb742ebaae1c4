package rankings_test

import (
	"encoding/hex"
	"strings"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil/wirecheck"
)

// FuzzRankingCodec: the counted-list decoder (and through it the one
// ranking decoder), the CRC frame, and the gob blob flow ships.
func FuzzRankingCodec(f *testing.F) {
	for _, seed := range []string{
		"0254030a0605020106",   // two rankings
		"0554030a060527636654", // one frame (wire_test.go's golden)
		"0154030a0605", "", "ffffffff0f020106", "0182000106",
	} {
		b, _ := hex.DecodeString(seed)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wirecheck.Decoder(t, data, func(data []byte) ([]byte, error) {
			rs, n, err := rankings.DecodeRankings(data)
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				if err := r.Validate(); err != nil {
					t.Fatalf("decoder accepted invalid ranking %v: %v", r, err)
				}
			}
			return append(rankings.AppendRankings(nil, rs), data[n:]...), nil
		})
		wirecheck.Decoder(t, data, func(data []byte) ([]byte, error) {
			payload, n, err := rankings.ReadFrame(data)
			if err != nil {
				return nil, err
			}
			return append(rankings.EndFrame(append([]byte(nil), payload...), 0), data[n:]...), nil
		})
		wirecheck.Decoder(t, data, func(data []byte) ([]byte, error) {
			var r rankings.Ranking
			if err := r.GobDecode(data); err != nil {
				return nil, err
			}
			return r.GobEncode()
		})
	})
}

// FuzzParseLine: the parser must never panic and must only accept lines
// that round-trip.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		"1 2 3", "7: 4 5 6", "1,2,3", "", ":", "a b", "9:", "-1 -2",
		"1 1", "2147483647 0", "9999999999999", "5:\t1,  2 3 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := rankings.ParseLine(line, 42)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("parser accepted invalid ranking %v: %v", r, err)
		}
		var sb strings.Builder
		if err := rankings.Write(&sb, []*rankings.Ranking{r}); err != nil {
			t.Fatal(err)
		}
		back, err := rankings.Read(strings.NewReader(sb.String()))
		if err != nil || len(back) != 1 {
			t.Fatalf("round trip failed: %v %v", back, err)
		}
		if back[0].ID != r.ID || !rankings.Equal(back[0], r) {
			t.Fatalf("round trip changed %v to %v", r, back[0])
		}
	})
}

// FuzzFootruleMetric: any pair of parsed rankings of equal length must
// satisfy the metric axioms and the distance bounds.
func FuzzFootruleMetric(f *testing.F) {
	f.Add("1 2 3", "3 2 1")
	f.Add("5 6 7", "8 9 10")
	f.Add("1 2", "2 1")
	f.Fuzz(func(t *testing.T, la, lb string) {
		a, errA := rankings.ParseLine(la, 0)
		b, errB := rankings.ParseLine(lb, 1)
		if errA != nil || errB != nil || a.K() != b.K() {
			return
		}
		d := rankings.Footrule(a, b)
		if d != rankings.Footrule(b, a) {
			t.Fatal("asymmetric")
		}
		if d < 0 || d > rankings.MaxFootrule(a.K()) {
			t.Fatalf("distance %d out of range", d)
		}
		if (d == 0) != rankings.Equal(a, b) {
			t.Fatalf("identity violated: d=%d", d)
		}
		if got, ok := rankings.FootruleWithin(a, b, d); !ok || got != d {
			t.Fatalf("FootruleWithin(d) inconsistent: %d %v", got, ok)
		}
		if _, ok := rankings.FootruleWithin(a, b, d-1); ok && d > 0 {
			t.Fatal("FootruleWithin(d-1) accepted")
		}
	})
}
