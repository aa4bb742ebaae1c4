package rankings

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The ranking codec and the CRC frame: every binary format in the
// repository (WAL records, snapshot images, shuffle frames, join-start
// bodies) is a container around these two. Layouts: DESIGN.md §15.

// WireVersion is the generation of those formats. A ranking's bytes
// carry no version; its container does (wal.meta, the RKS/RKX/RKJ
// magics), and a container of another generation is refused unparsed.
const WireVersion = 2

// ErrCorrupt reports bytes that are all there but wrong: a CRC
// mismatch, a padded varint, a count the remaining bytes cannot hold,
// an item outside int32, a ranking that fails Validate.
var ErrCorrupt = errors.New("rankings: corrupt encoding")

// ErrTorn reports a frame cut short by the end of its input — the
// expected shape of the last WAL record after a crash mid-write.
var ErrTorn = errors.New("rankings: torn frame")

// Uvarint is binary.Uvarint refusing padded encodings (0x80 0x00 for
// 0): every value has one spelling, so decode-then-encode reproduces
// the input. n ≤ 0 reports failure as in binary.
func Uvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// Varint is the zig-zag counterpart of Uvarint.
func Varint(data []byte) (int64, int) {
	v, n := binary.Varint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// AppendWire appends r's encoding to buf: id (varint), item count
// (uvarint), items (varints). Derived state is a pure function of
// Items and is never shipped. With room in buf it allocates nothing.
func (r *Ranking) AppendWire(buf []byte) []byte {
	buf = binary.AppendVarint(buf, r.ID)
	buf = binary.AppendUvarint(buf, uint64(len(r.Items)))
	for _, it := range r.Items {
		buf = binary.AppendVarint(buf, int64(it))
	}
	return buf
}

// DecodeWire decodes one ranking off the head of data into r and
// returns the bytes it took — the only place ranking items are read
// from bytes. It accepts what New accepts, every item an int32.
func (r *Ranking) DecodeWire(data []byte) (int, error) {
	id, off := Varint(data)
	if off <= 0 {
		return 0, fmt.Errorf("%w: ranking id", ErrCorrupt)
	}
	count, n := Uvarint(data[off:])
	off += n
	if n <= 0 || count > uint64(len(data)-off) { // every item takes ≥ 1 byte
		return 0, fmt.Errorf("%w: ranking %d: item count", ErrCorrupt, id)
	}
	items := make([]Item, count)
	for i := range items {
		v, n := Varint(data[off:])
		if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
			return 0, fmt.Errorf("%w: ranking %d: item %d", ErrCorrupt, id, i)
		}
		items[i] = Item(v)
		off += n
	}
	*r = Ranking{ID: id, Items: items}
	if err := r.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return off, nil
}

// AppendRankings appends a counted list: count (uvarint), then the
// rankings back to back.
func AppendRankings(buf []byte, rs []*Ranking) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = r.AppendWire(buf)
	}
	return buf
}

// DecodeRankings reads such a list off the head of data, returning the
// bytes it took.
func DecodeRankings(data []byte) ([]*Ranking, int, error) {
	count, off := Uvarint(data)
	// A ranking takes ≥ 3 bytes (id, count, one item), so the input's
	// own size bounds the allocation below.
	if off <= 0 || count > uint64(len(data)-off)/3 {
		return nil, 0, fmt.Errorf("%w: ranking count", ErrCorrupt)
	}
	rs := make([]*Ranking, count)
	for i := range rs {
		rs[i] = new(Ranking)
		n, err := rs[i].DecodeWire(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
	}
	return rs, off, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const crcSize = 4

// EndFrame turns the payload the caller appended at buf[start:] into a
// frame, in place: payload length (uvarint), payload, CRC-32C of the
// payload (uint32, little-endian). The length is outside the CRC: a
// damaged one lands the check on the wrong bytes (corrupt) or runs
// past the input (torn).
func EndFrame(buf []byte, start int) []byte {
	size := len(buf) - start
	crc := crc32.Checksum(buf[start:], crcTable)
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(size))
	buf = append(buf, prefix[:n]...) // grow by n, then shift the payload right
	copy(buf[start+n:], buf[start:start+size])
	copy(buf[start:], prefix[:n])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// ReadFrame splits one frame off the head of data, returning its
// payload (aliasing data) and the frame's total size. ErrTorn: data
// ends mid-frame; ErrCorrupt: complete, but CRC or length is wrong.
func ReadFrame(data []byte) (payload []byte, size int, err error) {
	plen, n := Uvarint(data)
	if n < 0 || n == 0 && len(data) >= binary.MaxVarintLen64 {
		return nil, 0, fmt.Errorf("%w: frame length prefix", ErrCorrupt)
	}
	if n == 0 || plen > uint64(len(data)-n) || len(data)-n-int(plen) < crcSize {
		return nil, 0, ErrTorn
	}
	end := n + int(plen)
	if crc32.Checksum(data[n:end], crcTable) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, 0, fmt.Errorf("%w: frame crc mismatch", ErrCorrupt)
	}
	return data[n:end], end + crcSize, nil
}

// Unseal opens the envelope of every self-contained message (snapshot
// image, shuffle frame, join-start body): the magic that names format
// and generation, then one frame that must make up the rest of body.
func Unseal(magic string, body []byte) (payload []byte, err error) {
	if len(body) < len(magic) || string(body[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: not a %s message", ErrCorrupt, magic)
	}
	payload, size, err := ReadFrame(body[len(magic):])
	if err == nil && len(magic)+size != len(body) {
		err = fmt.Errorf("%w: bytes after the frame", ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("%s message: %w", magic, err)
	}
	return payload, nil
}

// GobEncode implements gob.GobEncoder for internal/flow, whose spill
// files and exchange frames keep reflection gob as the container for
// their generic record types; the blob is the wire encoding. Without
// it gob would strip the unexported derived state.
func (r *Ranking) GobEncode() ([]byte, error) {
	return r.AppendWire(make([]byte, 0, 2*binary.MaxVarintLen64+len(r.Items)*binary.MaxVarintLen32)), nil
}

// GobDecode implements gob.GobDecoder. The ranking comes back indexed:
// what crosses a shuffle is on its way into a join kernel.
func (r *Ranking) GobDecode(data []byte) error {
	n, err := r.DecodeWire(data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("%w: ranking %d: trailing bytes", ErrCorrupt, r.ID)
	}
	if err == nil {
		r.Index()
	}
	return err
}

// UnmarshalJSON parses {"id":…,"items":[…]} — the shape ID's and
// Items' tags define, for every endpoint that carries a ranking —
// strictly (unknown fields are refused) and validates as New does.
func (r *Ranking) UnmarshalJSON(data []byte) error {
	type fields Ranking // the tagged fields without this method
	*r = Ranking{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode((*fields)(r)); err != nil {
		return err
	}
	return r.Validate()
}
