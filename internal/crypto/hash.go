// Package crypto provides the cryptographic substrate for the blockchain
// protocols in this repository: double-SHA256 block hashing, compact
// difficulty targets and proof-of-work arithmetic, Merkle trees over
// transaction hashes, and Ed25519 keys for Bitcoin-NG microblock signing.
//
// Everything is built on the Go standard library (crypto/sha256,
// crypto/ed25519, math/big).
package crypto

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Hash is a 32-byte digest. Block IDs, transaction IDs, and Merkle roots are
// all Hashes. It is a value type usable as a map key.
type Hash [32]byte

// HashSize is the byte length of a Hash, for wire-size accounting.
const HashSize = len(Hash{})

// ZeroHash is the all-zero hash, used as the previous-block reference of the
// genesis block.
var ZeroHash Hash

// HashBytes returns the double-SHA256 of b, the digest Bitcoin uses for
// block headers and transactions.
func HashBytes(b []byte) Hash {
	first := sha256.Sum256(b)
	return sha256.Sum256(first[:])
}

// String returns the hash in the conventional display order: hex of the
// byte-reversed digest, as block explorers print it.
func (h Hash) String() string {
	var rev [32]byte
	for i := range h {
		rev[31-i] = h[i]
	}
	return hex.EncodeToString(rev[:])
}

// Short returns the first 8 hex characters of the display form, for logs.
func (h Hash) Short() string {
	rev := [4]byte{h[31], h[30], h[29], h[28]}
	return hex.EncodeToString(rev[:])
}

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// ParseHash parses a 64-character display-order hex string.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 64 {
		return h, fmt.Errorf("crypto: hash hex must be 64 chars, got %d", len(s))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("crypto: bad hash hex: %w", err)
	}
	for i := range h {
		h[i] = raw[31-i]
	}
	return h, nil
}
