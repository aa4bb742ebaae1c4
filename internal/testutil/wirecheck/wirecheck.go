// Package wirecheck is what the fuzz targets of the binary formats
// share.
package wirecheck

import (
	"bytes"
	"runtime"
	"testing"
)

// Decoder holds one decode to the property every binary decoder is
// fuzzed against: it allocates no more than a constant factor of its
// input (no length prefix sizes an allocation on its own), and when it
// accepts, the re-encoding it returns is the input byte for byte.
func Decoder(t *testing.T, data []byte, decode func([]byte) (reencoded []byte, err error)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := decode(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
	}
	if err == nil && !bytes.Equal(out, data) {
		t.Fatalf("accepted % x\nre-encodes as % x", data, out)
	}
}
