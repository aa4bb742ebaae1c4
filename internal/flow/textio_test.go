package flow_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rankjoin/internal/flow"
)

func writeLines(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTextFileSplitsExactlyOnce: every line appears exactly once,
// regardless of how the byte ranges cut across lines.
func TestTextFileSplitsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		lines := make([]string, n)
		for i := range lines {
			// Highly variable line lengths stress the split boundaries.
			lines[i] = fmt.Sprintf("line-%04d-%s", i, strings.Repeat("x", rng.Intn(50)))
		}
		path := writeLines(t, lines)
		for _, parts := range []int{1, 2, 3, 7, 16, 100} {
			ctx := flow.NewContext(flow.Config{Workers: 4})
			got, err := flow.TextFile(ctx, path, parts).Collect()
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			want := append([]string(nil), lines...)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d parts=%d: %d lines, want %d", trial, parts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d parts=%d: line %d = %q, want %q", trial, parts, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTextFilePreservesOrderWithinSplits(t *testing.T) {
	lines := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	path := writeLines(t, lines)
	ctx := flow.NewContext(flow.Config{Workers: 1})
	got, err := flow.TextFile(ctx, path, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Collect preserves partition order and splits are contiguous byte
	// ranges, so the overall order must be the file order.
	if strings.Join(got, "") != "abcdefgh" {
		t.Errorf("order = %v", got)
	}
}

func TestTextFileCRLFAndMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crlf.txt")
	if err := os.WriteFile(path, []byte("a\r\nb\r\nc"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := flow.NewContext(flow.Config{Workers: 2})
	got, err := flow.TextFile(ctx, path, 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("crlf lines = %v", got)
	}
	if _, err := flow.TextFile(ctx, filepath.Join(t.TempDir(), "nope"), 2).Collect(); err == nil {
		t.Error("missing file accepted")
	}
}
