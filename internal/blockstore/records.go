package blockstore

import (
	"sync"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/slots"
	"bitcoinng/internal/types"
)

// records is the chain index Mem and Store keep alike: the blocks held, named
// by their ordinals in a Table, in append order with their arrival times. Per
// block that is a 16-byte record, in chunks that never move, and a bit of the
// membership set. Where a body comes from is the embedding archive's own
// business. The owning node serializes access, except that Get may be called
// from any goroutine; mu guards it against Append.
type records struct {
	mu     sync.Mutex
	blocks *Table
	held   slots.Bits
	recs   slots.Chunked[record] // in append order
	n      int32
	latest int64 // the latest block timestamp or arrival time held
}

// record is one held block: its ordinal and arrival time.
type record struct {
	ord int32
	at  int64
}

// ordinal returns the ordinal of h if it is held.
func (r *records) ordinal(h crypto.Hash) (int32, bool) {
	o, ok := r.blocks.Lookup(h)
	return o, ok && r.held.Has(o)
}

// add appends ordinal o, not held yet, with its arrival time at and its block
// timestamp time.
func (r *records) add(o int32, at, time int64) {
	r.held.Add(o)
	*r.recs.At(r.n) = record{ord: o, at: at}
	r.n++
	r.latest = max(r.latest, time, at)
}

// Len returns the number of stored blocks.
func (r *records) Len() int { return int(r.n) }

// Contains reports whether the block is stored.
func (r *records) Contains(h crypto.Hash) bool {
	_, ok := r.ordinal(h)
	return ok
}

// Hashes returns the stored block hashes in append order, read from the
// table without touching a body. The caller owns the returned slice.
func (r *records) Hashes() []crypto.Hash {
	out := make([]crypto.Hash, r.n)
	for i := range r.n {
		out[i] = r.blocks.hash(r.recs.At(i).ord)
	}
	return out
}

// Latest returns the latest block timestamp or arrival time stored; 0 when
// empty. Both are kept as records are added, so reading it reads no body.
func (r *records) Latest() int64 { return r.latest }

// replay streams every stored block, which body returns by ordinal, in append
// order with its recorded arrival time, stopping at the first error.
func (r *records) replay(body func(o int32) (types.Block, error), fn func(b types.Block, receivedAt int64) error) error {
	for i := range r.n {
		rec := r.recs.At(i)
		b, err := body(rec.ord)
		if err != nil {
			return err
		}
		if err := fn(b, rec.at); err != nil {
			return err
		}
	}
	return nil
}
