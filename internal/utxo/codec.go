package utxo

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Wire sizes for the fixed-width entry encoding shared by the file-backed
// store's op-log journal, checkpoint, and paged table (internal/store).
const (
	// OutPointWireSize is TxID (32) + Index (4).
	OutPointWireSize = crypto.HashSize + 4
	// EntryWireSize is Value (8) + To (32) + Height (8) + flags (1).
	EntryWireSize = 8 + crypto.HashSize + 8 + 1
	// deltaOpWireSize is kind (1) + outpoint + entry.
	deltaOpWireSize = 1 + OutPointWireSize + EntryWireSize
)

const (
	entryFlagCoinbase = 1 << 0
	entryFlagRevoked  = 1 << 1
)

// PutOutPoint encodes op into dst, which must be at least OutPointWireSize
// bytes.
func PutOutPoint(dst []byte, op types.OutPoint) {
	copy(dst[:crypto.HashSize], op.TxID[:])
	binary.LittleEndian.PutUint32(dst[crypto.HashSize:], op.Index)
}

// GetOutPoint decodes an outpoint written by PutOutPoint.
func GetOutPoint(src []byte) types.OutPoint {
	var op types.OutPoint
	copy(op.TxID[:], src[:crypto.HashSize])
	op.Index = binary.LittleEndian.Uint32(src[crypto.HashSize:])
	return op
}

// PutEntry encodes e into dst, which must be at least EntryWireSize bytes.
func PutEntry(dst []byte, e Entry) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(e.Value))
	copy(dst[8:8+crypto.HashSize], e.To[:])
	binary.LittleEndian.PutUint64(dst[8+crypto.HashSize:16+crypto.HashSize], e.Height)
	var flags byte
	if e.Coinbase {
		flags |= entryFlagCoinbase
	}
	if e.Revoked {
		flags |= entryFlagRevoked
	}
	dst[16+crypto.HashSize] = flags
}

// GetEntry decodes an entry written by PutEntry.
func GetEntry(src []byte) Entry {
	var e Entry
	e.Value = types.Amount(binary.LittleEndian.Uint64(src[0:8]))
	copy(e.To[:], src[8:8+crypto.HashSize])
	e.Height = binary.LittleEndian.Uint64(src[8+crypto.HashSize : 16+crypto.HashSize])
	flags := src[16+crypto.HashSize]
	e.Coinbase = flags&entryFlagCoinbase != 0
	e.Revoked = flags&entryFlagRevoked != 0
	return e
}

// AppendDelta serializes a delta's ordered op log behind dst: a little-endian
// uint32 count followed by fixed-width ops. The encoding is canonical — equal
// deltas encode to equal bytes — so journal contents are comparable across
// runs in the store differential tests. Appending lets the journal frame the
// encoding inside the record buffer it keeps.
func AppendDelta(dst []byte, d *Delta) []byte {
	off, n := len(dst), 4+len(d.ops)*deltaOpWireSize
	dst = slices.Grow(dst, n)[:off+n]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(d.ops)))
	off += 4
	for i := range d.ops {
		op := &d.ops[i]
		dst[off] = op.kind
		PutOutPoint(dst[off+1:], op.op)
		PutEntry(dst[off+1+OutPointWireSize:], op.entry)
		off += deltaOpWireSize
	}
	return dst
}

// DecodeDelta parses an encoding produced by AppendDelta.
func DecodeDelta(data []byte) (*Delta, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("utxo: delta truncated: %d bytes", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if want := 4 + n*deltaOpWireSize; len(data) != want {
		return nil, fmt.Errorf("utxo: delta length %d, want %d for %d ops", len(data), want, n)
	}
	d := &Delta{ops: make([]deltaOp, n)}
	off := 4
	for i := 0; i < n; i++ {
		kind := data[off]
		if kind > opPoison {
			return nil, fmt.Errorf("utxo: delta op %d: unknown kind %d", i, kind)
		}
		d.ops[i] = deltaOp{
			kind:  kind,
			op:    GetOutPoint(data[off+1:]),
			entry: GetEntry(data[off+1+OutPointWireSize:]),
		}
		off += deltaOpWireSize
	}
	return d, nil
}
