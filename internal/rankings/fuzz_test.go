package rankings_test

import (
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

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

// FuzzTextRankings drives arbitrary bytes through the dataset-loading
// path the daemon and the CLIs share: rankings.Read over the whole
// input, rankings.ParseLine per line. Three properties must hold for
// any input:
//
//  1. nothing panics — malformed server input (rankserved -data, HTTP
//     "line" queries) must surface as errors, never crash the process;
//  2. fragmentation is lossless — a file or socket that delivers the
//     bytes one at a time, or half a buffer at a time, yields what one
//     read of the whole input yields;
//  3. Read is all-or-nothing and agrees with the per-line verdicts: on
//     success it returns exactly the lines ParseLine accepts.
func FuzzTextRankings(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "rankings.txt")); err == nil {
		f.Add(string(data), uint8(2))
	}
	for _, seed := range []string{
		"2 5 4 3 1\n1 4 5 9 0\n",
		"7: 2 5 4 3 1\n8: 1,4,5,9,0\n",
		"# comment\n\n1: 1 2 3\n",
		"1: 1 2 3",   // no trailing newline
		"\n\n\n",     // blank lines only
		"1: 1 1 1\n", // duplicate items — must error, not panic
		"x: 1 2 3\n999999999999999999999999: 1\n",
		"1: 99999999999999999999\n-5: 3 2 1\n",
		"\xff\xfe garbage \x00\n1: 1 2\r\n",
		strings.Repeat("9", 1<<10) + "\n",
	} {
		for _, fragments := range []uint8{0, 1, 2} {
			f.Add(seed, fragments)
		}
	}
	f.Fuzz(func(t *testing.T, content string, fragments uint8) {
		// Every non-blank, non-comment line goes through the ranking
		// parser; it may reject, it must not panic.
		parsed := 0
		for i, line := range strings.Split(content, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if r, err := rankings.ParseLine(line, int64(i)); err == nil {
				if r == nil || r.K() == 0 {
					t.Fatalf("line %q: ParseLine returned %v with nil error", line, r)
				}
				parsed++
			}
		}
		whole, wholeErr := rankings.Read(strings.NewReader(content))
		if wholeErr == nil && len(whole) != parsed {
			t.Fatalf("Read parsed %d rankings, per-line parse accepted %d", len(whole), parsed)
		}
		var r io.Reader = strings.NewReader(content)
		switch fragments % 3 {
		case 1:
			r = iotest.OneByteReader(r)
		case 2:
			r = iotest.HalfReader(r)
		}
		got, err := rankings.Read(r)
		if (err == nil) != (wholeErr == nil) || len(got) != len(whole) {
			t.Fatalf("fragmented read: %d rankings, err %v; whole read: %d, err %v", len(got), err, len(whole), wholeErr)
		}
		for i := range got {
			if got[i].ID != whole[i].ID || !rankings.Equal(got[i], whole[i]) {
				t.Fatalf("fragmented read: ranking %d is %v, whole read %v", i, got[i], whole[i])
			}
		}
	})
}
