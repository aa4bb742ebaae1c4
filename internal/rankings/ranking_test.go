package rankings_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	if _, err := rankings.New(1, []rankings.Item{1, 2, 1}); err == nil {
		t.Error("duplicate items accepted")
	}
	if _, err := rankings.New(1, nil); err == nil {
		t.Error("empty ranking accepted")
	}
	r, err := rankings.New(7, []rankings.Item{3, 1, 2})
	if err != nil {
		t.Fatalf("valid ranking rejected: %v", err)
	}
	if r.K() != 3 || r.ID != 7 {
		t.Errorf("unexpected ranking %v", r)
	}
}

func TestPosWithAndWithoutIndex(t *testing.T) {
	r := rankings.MustNew(0, []rankings.Item{9, 4, 7})
	check := func() {
		t.Helper()
		for want, it := range []rankings.Item{9, 4, 7} {
			got, ok := r.Pos(it)
			if !ok || got != int32(want) {
				t.Errorf("Pos(%d) = %d,%v want %d,true", it, got, ok, want)
			}
		}
		if _, ok := r.Pos(42); ok {
			t.Error("Pos(42) found a missing item")
		}
	}
	check() // linear-scan path
	r.Index()
	check()   // indexed path
	r.Index() // idempotent
	check()
}

// TestFlatIndexAgreesWithScan: on random rankings the flat-index Pos
// path, the merged Footrule kernels and Domain all agree with the
// unindexed scan paths.
func TestFlatIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(25)
		dom := k + rng.Intn(3*k)
		a := testutil.RandRanking(rng, 0, k, dom) // indexed
		b := testutil.RandRanking(rng, 1, k, dom) // indexed
		ua := rankings.MustNew(2, a.Items)        // scan path
		ub := rankings.MustNew(3, b.Items)
		if !a.Indexed() || ua.Indexed() {
			t.Fatal("Indexed() flag wrong")
		}
		for it := rankings.Item(0); it < rankings.Item(dom); it++ {
			gp, gok := a.Pos(it)
			wp, wok := ua.Pos(it)
			if gp != wp || gok != wok {
				t.Fatalf("Pos(%d): indexed %d,%v scan %d,%v (items %v)", it, gp, gok, wp, wok, a.Items)
			}
		}
		if got, want := rankings.Footrule(a, b), rankings.Footrule(ua, ub); got != want {
			t.Fatalf("merged footrule %d, scan %d (a=%v b=%v)", got, want, a, b)
		}
		bound := rng.Intn(rankings.MaxFootrule(k) + 1)
		gd, gok := rankings.FootruleWithin(a, b, bound)
		_, wok := rankings.FootruleWithin(ua, ub, bound)
		if gok != wok {
			t.Fatalf("merged within(%d) ok=%v, scan ok=%v", bound, gok, wok)
		}
		if gok && gd != rankings.Footrule(ua, ub) {
			t.Fatalf("merged within dist %d, want %d", gd, rankings.Footrule(ua, ub))
		}
		ga, wa := a.Domain(), ua.Domain()
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("domain mismatch: %v vs %v", ga, wa)
			}
		}
	}
}

func TestOverlapAndDomain(t *testing.T) {
	a := rankings.MustNew(0, []rankings.Item{5, 3, 1})
	b := rankings.MustNew(1, []rankings.Item{1, 2, 5})
	if got := rankings.Overlap(a, b); got != 2 {
		t.Errorf("overlap = %d, want 2", got)
	}
	if got := a.Domain(); got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("domain = %v, want [1 3 5]", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := rankings.MustNew(0, []rankings.Item{1, 2, 3})
	c := a.Clone()
	c.Items[0] = 99
	if a.Items[0] != 1 {
		t.Error("clone shares item storage")
	}
}

func TestParseLineForms(t *testing.T) {
	cases := []struct {
		line   string
		id     int64
		wantID int64
		items  []rankings.Item
	}{
		{"2 5 4 3 1", 3, 3, []rankings.Item{2, 5, 4, 3, 1}},
		{"7: 2 5 4", 0, 7, []rankings.Item{2, 5, 4}},
		{"2,5,4", 1, 1, []rankings.Item{2, 5, 4}},
		{"  8:\t1, 2  3 ", 0, 8, []rankings.Item{1, 2, 3}},
	}
	for _, c := range cases {
		r, err := rankings.ParseLine(c.line, c.id)
		if err != nil {
			t.Errorf("ParseLine(%q): %v", c.line, err)
			continue
		}
		if r.ID != c.wantID {
			t.Errorf("ParseLine(%q): id %d, want %d", c.line, r.ID, c.wantID)
		}
		for i, it := range c.items {
			if r.Items[i] != it {
				t.Errorf("ParseLine(%q): items %v, want %v", c.line, r.Items, c.items)
				break
			}
		}
	}
	for _, bad := range []string{"", "a b c", "1 2 x", "y: 1 2", "1 1 2"} {
		if _, err := rankings.ParseLine(bad, 0); err == nil {
			t.Errorf("ParseLine(%q) accepted", bad)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := testutil.RandDataset(rng, 50, 8, 40)
	var buf bytes.Buffer
	if err := rankings.Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := rankings.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds) {
		t.Fatalf("round trip length %d, want %d", len(back), len(ds))
	}
	for i := range ds {
		if back[i].ID != ds[i].ID || !rankings.Equal(back[i], ds[i]) {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back[i], ds[i])
		}
	}
}

func TestReadSkipsCommentsAndAssignsIDs(t *testing.T) {
	in := "# header\n1 2 3\n\n4 5 6\n"
	rs, err := rankings.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].ID != 0 || rs[1].ID != 1 {
		t.Fatalf("got %v", rs)
	}
}

func TestReadRejectsBadLine(t *testing.T) {
	if _, err := rankings.Read(strings.NewReader("1 2\nbroken line\n")); err == nil {
		t.Error("bad line accepted")
	}
}

func TestUniformK(t *testing.T) {
	three := rankings.MustNew(1, []rankings.Item{1, 2, 3})
	alsoThree := rankings.MustNew(2, []rankings.Item{4, 5, 6})
	two := rankings.MustNew(3, []rankings.Item{1, 2})
	if k, err := rankings.UniformK(nil); k != 0 || err != nil {
		t.Errorf("empty dataset: k=%d err=%v, want 0, nil", k, err)
	}
	if k, err := rankings.UniformK([]*rankings.Ranking{three, alsoThree}); k != 3 || err != nil {
		t.Errorf("uniform dataset: k=%d err=%v, want 3, nil", k, err)
	}
	if _, err := rankings.UniformK([]*rankings.Ranking{three, alsoThree, two}); !errors.Is(err, rankings.ErrMixedLengths) {
		t.Errorf("mixed dataset: err=%v, want ErrMixedLengths", err)
	}
}
