package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

func testKey(t testing.TB, seed int64) *crypto.PrivateKey {
	t.Helper()
	k, err := crypto.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return k
}

func TestFactoryLocators(t *testing.T) {
	for _, url := range []string{"", "mem:", "mem"} {
		if f, err := NewFactory(url); err != nil || f.dir != "" {
			t.Fatalf("locator %q: %v, root %q", url, err, f.dir)
		}
	}
	if _, err := NewFactory("bolt:x"); err == nil {
		t.Fatal("unknown locator accepted")
	}
	dir := filepath.Join(t.TempDir(), "root")
	f, err := NewFactory("file:" + dir)
	if err != nil || f.dir != dir {
		t.Fatalf("file locator: %v, root %q", err, f.dir)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("file root not created: %v", err)
	}
	// Ephemeral root is created and removed by Close.
	f, err = NewFactory("file:")
	if err != nil {
		t.Fatal(err)
	}
	root := f.dir
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("ephemeral root missing: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("ephemeral root survived Close: %v", err)
	}
}

// applyFunding applies a height-0 coinbase paying amounts to key and returns
// its outpoints.
func applyFunding(t *testing.T, u UTXO, key *crypto.PrivateKey, amounts ...types.Amount) []types.OutPoint {
	t.Helper()
	outs := make([]types.TxOutput, len(amounts))
	for i, a := range amounts {
		outs[i] = types.TxOutput{Value: a, To: key.Public().Addr()}
	}
	cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs}
	ref := utxo.BlockRef{Block: crypto.Hash{1}, Parent: crypto.ZeroHash}
	ctx := utxo.BlockContext{Height: 0, Params: types.DefaultParams(), Ref: ref}
	if _, _, err := u.ApplyBlock([]*types.Transaction{cb}, ctx); err != nil {
		t.Fatalf("funding: %v", err)
	}
	ops := make([]types.OutPoint, len(amounts))
	for i := range ops {
		ops[i] = types.OutPoint{TxID: cb.ID(), Index: uint32(i)}
	}
	return ops
}

func makeChain(t *testing.T, n int) []types.Block {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]types.Block, 0, n)
	prev := crypto.ZeroHash
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			mb := &types.MicroBlock{
				Header: types.MicroBlockHeader{
					Prev:      prev,
					TxRoot:    crypto.MerkleRoot(nil),
					TimeNanos: int64(i),
				},
			}
			mb.Header.Sign(key)
			blocks = append(blocks, mb)
			prev = mb.Hash()
			continue
		}
		txs := []*types.Transaction{{
			Kind:    types.TxCoinbase,
			Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
			Height:  uint64(i + 1),
		}}
		kb := &types.KeyBlock{
			Header: types.KeyBlockHeader{
				PowHeader: types.PowHeader{
					Prev:       prev,
					MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
					TimeNanos:  int64(i),
					Target:     crypto.EasiestTarget,
				},
				LeaderKey: key.Public(),
			},
			Txs:          txs,
			SimulatedPoW: true,
		}
		blocks = append(blocks, kb)
		prev = kb.Hash()
	}
	return blocks
}

// openFileIndex opens the file chain index named n0 under dir through the
// factory, as a node booted with a file: root does.
func openFileIndex(t *testing.T, dir string) ChainIndex {
	t.Helper()
	f, err := NewFactory("file:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := f.NewChainIndex("n0")
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// replayTimes returns every stored block's arrival time, in append order.
func replayTimes(t *testing.T, ix ChainIndex) map[crypto.Hash]int64 {
	t.Helper()
	times := make(map[crypto.Hash]int64)
	if err := ix.Replay(func(b types.Block, at int64) error {
		times[b.Hash()] = at
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return times
}

// TestFileIndexContract drives the chain-index contract over the file
// backend: append order, lookups, a duplicate append keeping the first
// arrival time, and Replay's (block, receivedAt) pairs.
func TestFileIndexContract(t *testing.T) {
	ix := openFileIndex(t, t.TempDir())
	defer ix.Close()
	blocks := makeChain(t, 6)
	for i, b := range blocks {
		if err := ix.Append(b, int64(1000+i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// Duplicate append keeps the FIRST time.
	if err := ix.Append(blocks[2], 9999); err != nil {
		t.Fatal(err)
	}
	if got := replayTimes(t, ix)[blocks[2].Hash()]; got != 1002 {
		t.Fatalf("arrival time after dup = %d, want 1002", got)
	}
	if ix.Len() != len(blocks) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(blocks))
	}
	hs := ix.Hashes()
	for i, b := range blocks {
		if hs[i] != b.Hash() {
			t.Fatalf("Hashes[%d] out of order", i)
		}
		if !ix.Contains(b.Hash()) {
			t.Fatalf("Contains(%d) = false", i)
		}
		got, err := ix.Get(b.Hash())
		if err != nil || got.Hash() != b.Hash() {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	i := 0
	err := ix.Replay(func(b types.Block, at int64) error {
		if b.Hash() != blocks[i].Hash() || at != int64(1000+i) {
			t.Fatalf("Replay %d: hash/time mismatch (at=%d)", i, at)
		}
		i++
		return nil
	})
	if err != nil || i != len(blocks) {
		t.Fatalf("Replay: %v after %d blocks", err, i)
	}
}

// TestFileIndexReopenTimes: a reopened file index must serve the same
// (block, receivedAt) pairs, so the rebuilt node's first-seen tie-break sees
// the inputs its first life recorded — not the reopen clock.
func TestFileIndexReopenTimes(t *testing.T) {
	dir := t.TempDir()
	ix := openFileIndex(t, dir)
	blocks := makeChain(t, 5)
	for i, b := range blocks {
		if err := ix.Append(b, int64(5000+i*3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	r := openFileIndex(t, dir)
	defer r.Close()
	if r.Len() != len(blocks) {
		t.Fatalf("reopened Len = %d", r.Len())
	}
	i := 0
	err := r.Replay(func(b types.Block, at int64) error {
		if b.Hash() != blocks[i].Hash() {
			t.Fatalf("Replay %d: wrong block", i)
		}
		if at != int64(5000+i*3) {
			t.Fatalf("Replay %d: receivedAt=%d, want %d — reopen lost arrival times", i, at, 5000+i*3)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Appending a block the first life stored must stay a no-op.
	if err := r.Append(blocks[0], 99999); err != nil {
		t.Fatal(err)
	}
	if got := replayTimes(t, r)[blocks[0].Hash()]; got != 5000 {
		t.Fatalf("duplicate append after reopen changed time: %d", got)
	}
}

// TestFactoryBuildsWorkingStores exercises both factory paths end to end: an
// empty working ledger, and a chain index that (under a file root) is the
// root's one file and reopens with its records and their latest time.
func TestFactoryBuildsWorkingStores(t *testing.T) {
	dir := t.TempDir()
	for _, url := range []string{"mem:", "file:" + dir} {
		f, err := NewFactory(url)
		if err != nil {
			t.Fatal(err)
		}
		u, err := f.NewUTXO("n0")
		if err != nil {
			t.Fatalf("%s: NewUTXO: %v", url, err)
		}
		applyFunding(t, u, testKey(t, 9), 42)
		if u.Len() != 1 {
			t.Fatalf("%s: Len = %d", url, u.Len())
		}
		ix, err := f.NewChainIndex("n0")
		if err != nil {
			t.Fatalf("%s: NewChainIndex: %v", url, err)
		}
		blocks := makeChain(t, 4)
		for i, b := range blocks {
			if err := ix.Append(b, int64(1000+i)); err != nil {
				t.Fatalf("%s: Append %d: %v", url, i, err)
			}
		}
		if url != "mem:" {
			if err := ix.Close(); err != nil {
				t.Fatalf("%s: index Close: %v", url, err)
			}
			names, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil || len(names) != 1 || filepath.Base(names[0]) != "n0.blocks" {
				t.Fatalf("%s: store files %v (err %v), want only n0.blocks", url, names, err)
			}
			if ix, err = f.NewChainIndex("n0"); err != nil {
				t.Fatalf("%s: reopening NewChainIndex: %v", url, err)
			}
		}
		i, latest := 0, int64(0)
		err = ix.Replay(func(b types.Block, at int64) error {
			if b.Hash() != blocks[i].Hash() || at != int64(1000+i) {
				t.Fatalf("%s: Replay %d: hash/time mismatch (at=%d)", url, i, at)
			}
			i++
			latest = max(latest, b.Time(), at)
			return nil
		})
		if err != nil || i != len(blocks) {
			t.Fatalf("%s: Replay: %v after %d blocks", url, err, i)
		}
		if got := ix.Latest(); got != latest {
			t.Fatalf("%s: Latest = %d, the replay's latest time is %d", url, got, latest)
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: index Close: %v", url, err)
		}
		f.Close()
	}
}
