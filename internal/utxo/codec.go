package utxo

import (
	"encoding/binary"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Wire sizes for the fixed-width entry encoding of the file-backed store's
// paged table (internal/store).
const (
	// OutPointWireSize is TxID (32) + Index (4).
	OutPointWireSize = crypto.HashSize + 4
	// EntryWireSize is Value (8) + To (32) + Height (8) + flags (1).
	EntryWireSize = 8 + crypto.HashSize + 8 + 1
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
