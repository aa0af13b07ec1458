// Package store is the pluggable persistence layer under a node: ledger
// (UTXO) storage and the chain index (block bodies + arrival times), selected
// through one URL-style locator. A ledger is always an in-memory *utxo.Set,
// whatever the locator: it is a function of the chain, and every boot
// rebuilds it from the chain index. The chain index is a blockstore:
// blockstore.Mem in memory, keeping a block's arrival time and the fleet's
// one copy of its body, or blockstore.Store on disk, keeping both in one
// record. A file root is what lets chain state
// exceed process RAM: compaction evicts deep block bodies and undo records,
// and the durable index serves them back.
//
// Both backends must behave identically at the consensus surface — the chaos
// differential replays whole experiments across them and byte-compares the
// reports — and compile-time assertions hold both to ChainIndex.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// UTXO is the full lifecycle surface of a ledger store: the chain.UTXOStore
// contract (stated structurally here to keep this package below the chain
// layer) plus the lifecycle the harnesses drive. *utxo.Set is its one
// implementation.
type UTXO interface {
	Lookup(op types.OutPoint) (utxo.Entry, bool)
	Len() int
	Range(fn func(op types.OutPoint, e utxo.Entry) bool)
	BalanceOf(addr crypto.Address) types.Amount
	Poisoned(coinbaseID crypto.Hash) bool
	ApplyBlock(txs []*types.Transaction, ctx utxo.BlockContext) (*utxo.Delta, []types.Amount, error)
	RedoBlock(d *utxo.Delta, at utxo.BlockRef)
	UndoBlock(d *utxo.Delta, at utxo.BlockRef)
	Stats() utxo.Stats

	// Reset drops all state; the restart path resets before replaying the
	// durable chain prefix so a half-synced store never double-applies.
	Reset() error
	// Sync and Close are no-ops on the in-memory set.
	Sync() error
	Close() error
}

var _ UTXO = (*utxo.Set)(nil)

// ChainIndex is a node's durable chain archive: every accepted block in
// append order together with its local arrival time. The arrival time is
// part of consensus-visible state — the first-seen tie-break reads it — so a
// reopened index must replay the same (block, receivedAt) pairs the first
// life recorded, or the rebuilt node would break ties differently than it
// did before the restart.
type ChainIndex interface {
	// Append persists a block with its arrival time. Appending an
	// already-stored block is a no-op that keeps the original time (the
	// first-seen rule is exactly about the FIRST arrival).
	Append(b types.Block, receivedAt int64) error
	// Get loads a block by hash.
	Get(h crypto.Hash) (types.Block, error)
	// Contains reports whether the block is stored.
	Contains(h crypto.Hash) bool
	// Len returns the number of stored blocks.
	Len() int
	// Hashes returns the stored block hashes in append order.
	Hashes() []crypto.Hash
	// Replay streams every stored block in append order with its recorded
	// arrival time. A block whose body the fleet's header holds in memory is
	// that object; only a body nobody holds is read back (decoded, on disk).
	// Iteration stops at the first callback error.
	Replay(fn func(b types.Block, receivedAt int64) error) error
	// Latest returns the latest time the stored records carry, the later of
	// a block's timestamp and its arrival time; 0 when empty. A resumed
	// fleet starts its clock there.
	Latest() int64
	// Sync flushes appended records to stable storage.
	Sync() error
	// Close releases resources.
	Close() error
}

var (
	_ ChainIndex = (*blockstore.Store)(nil)
	_ ChainIndex = (*blockstore.Mem)(nil)
)

// Factory builds per-node stores from one URL-style locator:
//
//	mem:             in-memory backends (the default)
//	file:<dir>       file backends rooted at <dir>
//	file:            file backends in a fresh temporary directory that
//	                 Close removes — the chaos differential's throwaway mode
//
// Every store a factory hands out is independent, except that its chain
// indexes share the factory's one block table (Blocks): the mem: ones name
// their blocks there, which archives each body once for all of them, and the
// file ones replay the bodies its headers hold. Close closes the factory's
// bookkeeping only (per-store Close is the owner's job), plus the temporary
// root when the factory created one.
type Factory struct {
	dir       string // empty for mem:
	ephemeral bool   // dir was created by NewFactory and is removed on Close
	blocks    *blockstore.Table
}

// NewFactory parses the locator. An empty string means "mem:".
func NewFactory(url string) (*Factory, error) {
	f := &Factory{blocks: blockstore.NewTable()}
	switch {
	case url == "" || url == "mem:" || url == "mem":
		return f, nil
	case strings.HasPrefix(url, "file:"):
		f.dir = strings.TrimPrefix(url, "file:")
		if f.dir == "" {
			tmp, err := os.MkdirTemp("", "ngstore-")
			if err != nil {
				return nil, fmt.Errorf("store: temp root: %w", err)
			}
			f.dir, f.ephemeral = tmp, true
			return f, nil
		}
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: root %s: %w", f.dir, err)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("store: unknown locator %q (want mem: or file:<dir>)", url)
	}
}

// Blocks returns the block table the factory's chain indexes share. A
// harness hands it to its nodes' chain states too (chain.WithBlockTable), so
// a fleet names each block, builds its header and archives its body once.
func (f *Factory) Blocks() *blockstore.Table { return f.blocks }

// NewUTXO builds a ledger store: an empty in-memory set under every locator,
// so it neither reads nor writes the file root. The name is unused and the
// error always nil; both keep the signature NewChainIndex has.
func (f *Factory) NewUTXO(name string) (UTXO, error) { return utxo.New(), nil }

// NewChainIndex builds the named chain index over the factory's block table:
// an in-memory archive, or the block file <dir>/<name>.blocks.
func (f *Factory) NewChainIndex(name string) (ChainIndex, error) {
	if f.dir == "" {
		return blockstore.NewMem(f.blocks), nil
	}
	s, err := blockstore.Open(filepath.Join(f.dir, name+".blocks"), f.blocks)
	if err != nil {
		return nil, err // not a typed-nil *Store inside the interface
	}
	return s, nil
}

// Close removes the temporary root when the factory created one.
func (f *Factory) Close() error {
	if f.ephemeral && f.dir != "" {
		dir := f.dir
		f.dir = ""
		return os.RemoveAll(dir)
	}
	return nil
}
