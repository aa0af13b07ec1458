package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

func outpoint(seed int64, idx uint32) types.OutPoint {
	var h crypto.Hash
	r := rand.New(rand.NewSource(seed))
	r.Read(h[:])
	return types.OutPoint{TxID: h, Index: idx}
}

func TestFactoryLocators(t *testing.T) {
	f, err := NewFactory("")
	if err != nil || !f.InMemory() {
		t.Fatalf("empty locator: %v inMemory=%v", err, f.InMemory())
	}
	if _, err := NewFactory("bolt:x"); err == nil {
		t.Fatal("unknown locator accepted")
	}
	dir := t.TempDir()
	f, err = NewFactory("file:" + dir)
	if err != nil || f.InMemory() || f.Dir() != dir {
		t.Fatalf("file locator: %v dir=%q", err, f.Dir())
	}
	// Ephemeral root is created and removed by Close.
	f, err = NewFactory("file:")
	if err != nil {
		t.Fatal(err)
	}
	root := f.Dir()
	if root == "" {
		t.Fatal("ephemeral factory has no root")
	}
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

// TestPagedTableGrowAndDelete pushes the table through several growth
// rebuilds with a tiny page cache and verifies every entry survives, then
// deletes half and verifies the survivors stay reachable across the shifted
// probe runs.
func TestPagedTableGrowAndDelete(t *testing.T) {
	tab, err := newPagedTable(filepath.Join(t.TempDir(), "u.tab"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	const n = 5000 // minSlots is 1024, so this forces multiple doublings
	ops := make([]types.OutPoint, n)
	for i := range ops {
		ops[i] = outpoint(int64(i), uint32(i%7))
		tab.Put(ops[i], utxo.Entry{Value: types.Amount(i), Height: uint64(i)})
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i, op := range ops {
		e, ok := tab.Get(op)
		if !ok || e.Value != types.Amount(i) {
			t.Fatalf("entry %d: ok=%v value=%d", i, ok, e.Value)
		}
	}
	// Delete odd entries; evens must survive, odds must stay gone.
	for i := 1; i < n; i += 2 {
		tab.Delete(ops[i])
	}
	if tab.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", tab.Len(), n/2)
	}
	for i, op := range ops {
		_, ok := tab.Get(op)
		if want := i%2 == 0; ok != want {
			t.Fatalf("entry %d present=%v, want %v", i, ok, want)
		}
	}
	// Re-insert a deleted key: one live copy, not a duplicate.
	tab.Put(ops[1], utxo.Entry{Value: 777})
	if e, ok := tab.Get(ops[1]); !ok || e.Value != 777 {
		t.Fatalf("reinserted entry: ok=%v value=%d", ok, e.Value)
	}
	if tab.Len() != n/2+1 {
		t.Fatalf("Len after reinsert = %d", tab.Len())
	}
	// Range must see exactly the live set.
	seen := 0
	tab.Range(func(op types.OutPoint, e utxo.Entry) bool { seen++; return true })
	if seen != tab.Len() {
		t.Fatalf("Range saw %d entries, Len is %d", seen, tab.Len())
	}
	st := tab.Stats()
	if st.PageReads == 0 || st.PageWrites == 0 || st.CacheMisses == 0 {
		t.Errorf("expected nonzero paging counters, got %+v", st)
	}
}

// homedOutPoint returns a fresh outpoint whose probe starts at slot home of
// a table with the given slot count, so a test can pile keys into one probe
// run on purpose.
func homedOutPoint(r *rand.Rand, home, nSlots uint64) types.OutPoint {
	var op types.OutPoint
	r.Read(op.TxID[:])
	op.Index = uint32(r.Intn(4))
	mask := nSlots - 1
	// hashOf XORs the first eight bytes with a function of the index.
	k := hashOf(types.OutPoint{Index: op.Index})
	v := binary.LittleEndian.Uint64(op.TxID[:8])&^mask | (home^k)&mask
	binary.LittleEndian.PutUint64(op.TxID[:8], v)
	return op
}

// TestPagedTableMatchesMapModel runs random puts, updates and deletes
// against a map. Half the keys share five homes around the end of the table,
// so probe runs collide and wrap past slot 0 and every delete shifts entries
// back across the boundary; under a one-page cache each shift also faults.
// After every step Get, Len and Range must agree with the model.
func TestPagedTableMatchesMapModel(t *testing.T) {
	for _, pages := range []int{1, defaultCachePages} {
		t.Run(fmt.Sprintf("cache=%d", pages), func(t *testing.T) {
			tab, err := newPagedTable(filepath.Join(t.TempDir(), "u.tab"), pages)
			if err != nil {
				t.Fatal(err)
			}
			defer tab.Close()
			r := rand.New(rand.NewSource(int64(pages)))
			model := map[types.OutPoint]utxo.Entry{}
			var keys, gone []types.OutPoint
			homes := []uint64{minSlots - 3, minSlots - 2, minSlots - 1, 0, 1}
			for step := 0; step < 1500; step++ {
				switch k := r.Intn(10); {
				case k < 5 && len(keys) < 300:
					var op types.OutPoint
					if r.Intn(2) == 0 {
						op = homedOutPoint(r, homes[r.Intn(len(homes))], minSlots)
					} else {
						op = homedOutPoint(r, uint64(r.Intn(minSlots)), minSlots)
					}
					keys = append(keys, op)
					model[op] = utxo.Entry{Value: types.Amount(step), Height: uint64(step)}
					tab.Put(op, model[op])
				case k < 7 && len(keys) > 0:
					op := keys[r.Intn(len(keys))]
					model[op] = utxo.Entry{Value: types.Amount(step), Coinbase: true}
					tab.Put(op, model[op])
				case len(keys) > 0:
					j := r.Intn(len(keys))
					op := keys[j]
					keys[j] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
					delete(model, op)
					gone = append(gone, op)
					tab.Delete(op)
				}
				checkTableModel(t, tab, model, gone)
			}
			if tab.nSlots != minSlots {
				t.Fatalf("table grew to %d slots holding at most 300 entries", tab.nSlots)
			}
		})
	}
}

// checkTableModel compares a table with its map model: Len, a Get of every
// live key and of every deleted one, and one full Range.
func checkTableModel(t *testing.T, tab *pagedTable, model map[types.OutPoint]utxo.Entry, gone []types.OutPoint) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model %d", tab.Len(), len(model))
	}
	for op, want := range model {
		if got, ok := tab.Get(op); !ok || got != want {
			t.Fatalf("Get %v = %+v present=%v, want %+v", op, got, ok, want)
		}
	}
	for _, op := range gone {
		if _, live := model[op]; !live {
			if _, ok := tab.Get(op); ok {
				t.Fatalf("deleted key %v still found", op)
			}
		}
	}
	seen := 0
	tab.Range(func(op types.OutPoint, e utxo.Entry) bool {
		if want, ok := model[op]; !ok || e != want {
			t.Fatalf("Range yields %v = %+v, model has %+v (present=%v)", op, e, want, ok)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range saw %d entries, model %d", seen, len(model))
	}
}

// TestPagedTableChurnDoesNotGrow: a small live set churned by 100 000
// spends — the shape of a ledger under a sustained stream — keeps the table
// at its initial size. With tombstones, live plus dead slots reached the
// growth threshold and the table doubled over and over.
func TestPagedTableChurnDoesNotGrow(t *testing.T) {
	tab, err := newPagedTable(filepath.Join(t.TempDir(), "u.tab"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	const live, churn = 300, 100_000
	r := rand.New(rand.NewSource(1))
	ops := make([]types.OutPoint, churn)
	for i := range ops {
		ops[i] = homedOutPoint(r, uint64(r.Intn(minSlots)), minSlots)
		tab.Put(ops[i], utxo.Entry{Value: types.Amount(i)})
		if i >= live {
			tab.Delete(ops[i-live])
		}
	}
	if tab.nSlots != minSlots || tab.Len() != live {
		t.Fatalf("after %d churned entries: %d slots, %d live; want %d, %d", churn, tab.nSlots, tab.Len(), minSlots, live)
	}
	for i := churn - live; i < churn; i++ {
		if e, ok := tab.Get(ops[i]); !ok || e.Value != types.Amount(i) {
			t.Fatalf("survivor %d: %+v present=%v", i, e, ok)
		}
	}
}

// TestPagedTableSnapshotIsolation checks the two-sided isolation contract
// the in-memory backend documents, on the file backend.
func TestPagedTableSnapshotIsolation(t *testing.T) {
	tab, err := newPagedTable(filepath.Join(t.TempDir(), "u.tab"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	a, b := outpoint(1, 0), outpoint(2, 0)
	var cb crypto.Hash
	cb[0] = 9
	tab.Put(a, utxo.Entry{Value: 10})
	tab.SetPoisoned(cb, true)

	snap := tab.Snapshot()
	snap.Put(b, utxo.Entry{Value: 20})
	snap.Delete(a)
	snap.SetPoisoned(cb, false)
	tab.Put(a, utxo.Entry{Value: 11})

	if _, ok := tab.Get(b); ok {
		t.Error("snapshot Put leaked into table")
	}
	if e, ok := tab.Get(a); !ok || e.Value != 11 {
		t.Errorf("table entry a: ok=%v e=%+v", ok, e)
	}
	if !tab.Poisoned(cb) {
		t.Error("snapshot SetPoisoned(false) leaked into table")
	}
	if e, ok := snap.Get(a); ok {
		t.Errorf("table Put after snapshot leaked in: %+v", e)
	}
	if snap.Poisoned(cb) {
		t.Error("snapshot still poisoned")
	}
}

// TestPagedTableSnapshotLoadsInOneBatch pins the cost of materializing a
// snapshot in the persistent memory table: the entries load as one edit
// batch, so the copy allocates a couple of objects per entry (its leaf and
// its share of the trie nodes). One path copy per entry — the root and every
// node under it, again for each Put — would be three times that at this
// size and grow with depth.
func TestPagedTableSnapshotLoadsInOneBatch(t *testing.T) {
	tab, err := newPagedTable(filepath.Join(t.TempDir(), "u.tab"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		tab.Put(outpoint(int64(i), uint32(i%3)), utxo.Entry{Value: types.Amount(i)})
	}
	var snap utxo.Backend
	perEntry := testing.AllocsPerRun(3, func() { snap = tab.Snapshot() }) / n
	if snap.Len() != n {
		t.Fatalf("snapshot holds %d entries, want %d", snap.Len(), n)
	}
	if perEntry > 3 {
		t.Errorf("snapshot allocates %.1f objects per entry; a one-batch load needs under 3", perEntry)
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

func collectEntries(u UTXO) []string {
	var out []string
	u.Range(func(op types.OutPoint, e utxo.Entry) bool {
		out = append(out, fmt.Sprintf("%s:%d:%d:%v:%v", op.TxID.Short(), op.Index,
			e.Value, e.Coinbase, e.Revoked))
		return true
	})
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFileUTXOResetStartsClean mirrors the restart path over a file root:
// Reset empties the ledger and it accepts new state, and a second NewUTXO over
// the same directory starts empty — the paged table is a spill cache, so no
// state leaks from one open to the next, and the table is the only file.
func TestFileUTXOResetStartsClean(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFactory("file:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	u, err := f.NewUTXO("n0")
	if err != nil {
		t.Fatal(err)
	}
	applyFunding(t, u, testKey(t, 7), 10, 20)
	if err := u.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := u.Reset(); err != nil {
		t.Fatal(err)
	}
	if u.Len() != 0 {
		t.Fatalf("Len after Reset = %d", u.Len())
	}
	applyFunding(t, u, testKey(t, 8), 5)
	if u.Len() != 1 {
		t.Fatalf("Len after post-Reset apply = %d", u.Len())
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := f.NewUTXO("n0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := collectEntries(r); len(got) != 0 {
		t.Fatalf("a second open sees the first one's entries: %v", got)
	}
	// The same block applies again: none of its outputs survived the reopen.
	applyFunding(t, r, testKey(t, 8), 5)
	if r.Len() != 1 {
		t.Fatalf("Len after reopen and apply = %d", r.Len())
	}
	if names, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(names) != 1 || filepath.Base(names[0]) != "n0.tab" {
		t.Fatalf("ledger files %v (err %v), want only n0.tab", names, err)
	}
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

// TestFactoryBuildsWorkingStores exercises both factory paths end to end.
func TestFactoryBuildsWorkingStores(t *testing.T) {
	for _, url := range []string{"mem:", "file:" + t.TempDir()} {
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
		if err := u.Sync(); err != nil {
			t.Fatalf("%s: Sync: %v", url, err)
		}
		if err := u.Close(); err != nil {
			t.Fatalf("%s: Close: %v", url, err)
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
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: index Close: %v", url, err)
		}
		if !f.InMemory() {
			// The file root holds one chain-index file, no sidecar, and
			// a second index by the same name reopens it.
			names, err := filepath.Glob(filepath.Join(f.Dir(), "n0.*"))
			if err != nil || len(names) != 2 || filepath.Base(names[0]) != "n0.blocks" || filepath.Base(names[1]) != "n0.tab" {
				t.Fatalf("%s: store files %v (err %v), want n0.blocks and n0.tab", url, names, err)
			}
			if ix, err = f.NewChainIndex("n0"); err != nil {
				t.Fatalf("%s: reopening NewChainIndex: %v", url, err)
			}
			defer ix.Close()
		}
		i := 0
		err = ix.Replay(func(b types.Block, at int64) error {
			if b.Hash() != blocks[i].Hash() || at != int64(1000+i) {
				t.Fatalf("%s: Replay %d: hash/time mismatch (at=%d)", url, i, at)
			}
			i++
			return nil
		})
		if err != nil || i != len(blocks) {
			t.Fatalf("%s: Replay: %v after %d blocks", url, err, i)
		}
		f.Close()
	}
}

// TestSetCloneIsolationPagedBackend runs the Set.Clone mutation-isolation
// contract over the paged-table backend: the snapshot materializes in
// memory, so branch validation staged on a clone never touches the disk
// image, and later table writes never reach an outstanding clone.
func TestSetCloneIsolationPagedBackend(t *testing.T) {
	tab, err := newPagedTable(filepath.Join(t.TempDir(), "iso.tab"), 8)
	if err != nil {
		t.Fatal(err)
	}
	s := utxo.NewWith(tab)
	defer s.Close()
	key := testKey(t, 31)
	ops := applyFunding(t, s, key, 1000, 500)
	before := collectEntries(s)

	clone := s.Clone()
	ctx := utxo.BlockContext{Height: 500, Params: types.DefaultParams()}

	// Clone → table: a spend staged on the clone leaves the disk image and
	// the live set untouched.
	spend := &types.Transaction{
		Kind:   types.TxRegular,
		Inputs: []types.TxInput{{Prev: ops[0]}},
		Outputs: []types.TxOutput{
			{Value: 1000, To: key.Public().Addr()},
		},
	}
	spend.SignInput(0, key)
	if _, _, err := clone.ApplyBlock([]*types.Transaction{spend}, ctx); err != nil {
		t.Fatal(err)
	}
	if got := collectEntries(s); !equalStrings(got, before) {
		t.Errorf("clone spend reached the paged table:\n got %v\nwant %v", got, before)
	}

	// Table → clone: a spend applied to the live set leaves the clone's
	// view untouched.
	cloneBefore := collectEntries(clone)
	spend2 := &types.Transaction{
		Kind:   types.TxRegular,
		Inputs: []types.TxInput{{Prev: ops[1]}},
		Outputs: []types.TxOutput{
			{Value: 500, To: key.Public().Addr()},
		},
	}
	spend2.SignInput(0, key)
	if _, _, err := s.ApplyBlock([]*types.Transaction{spend2}, ctx); err != nil {
		t.Fatal(err)
	}
	if got := collectEntries(clone); !equalStrings(got, cloneBefore) {
		t.Errorf("live spend reached the clone:\n got %v\nwant %v", got, cloneBefore)
	}
}

// faultingTable fills a table of `entries` keys behind a cache of `pages`
// pages without crossing a growth threshold, and returns the keys.
func faultingTable(tb testing.TB, pages, entries int) (*pagedTable, []types.OutPoint) {
	tb.Helper()
	tab, err := newPagedTable(filepath.Join(tb.TempDir(), "u.tab"), pages)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tab.Close() })
	ops := make([]types.OutPoint, entries)
	for i := range ops {
		ops[i] = outpoint(int64(i), uint32(i%5))
		tab.Put(ops[i], utxo.Entry{Value: types.Amount(i)})
	}
	return tab, ops
}

// TestPageFaultDoesNotAllocate: a table at its cache budget serves a fault
// from the page it evicts — buffer, record and list element — so a Get that
// misses the cache allocates nothing. (It used to cost a fresh 4 KiB buffer
// per fault: two thirds of a file-backed benchmark child's allocation.)
func TestPageFaultDoesNotAllocate(t *testing.T) {
	tab, ops := faultingTable(t, 4, 600) // 22 pages of slots behind 4 cached
	before := tab.Stats()
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		if e, ok := tab.Get(ops[i%len(ops)]); !ok || e.Value != types.Amount(i%len(ops)) {
			t.Fatalf("entry %d: ok=%v value=%d", i%len(ops), ok, e.Value)
		}
		i++
	})
	after := tab.Stats()
	if faults := after.CacheMisses - before.CacheMisses; faults < 300 {
		t.Fatalf("only %d faults in 501 lookups; the table is not larger than its cache", faults)
	}
	if avg != 0 {
		t.Fatalf("a faulting Get allocates %.0f objects, want 0", avg)
	}
}

// TestRecycledPageReadsEmptyPastEOF: pages beyond the file's size read as
// empty slot runs. With a fresh buffer per fault that was free; a recycled
// buffer still holds the evicted page's slots and must be cleared past a
// short read, or a full low page reappears as phantom entries in every high
// page nobody has written yet.
func TestRecycledPageReadsEmptyPastEOF(t *testing.T) {
	tab, err := newPagedTable(filepath.Join(t.TempDir(), "u.tab"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	// Fill page 0 — and only the low pages — to the brim: keys whose probe
	// starts in the first page.
	model := map[types.OutPoint]utxo.Entry{}
	for seed := int64(0); len(model) < int(slotsPerPage); seed++ {
		op := outpoint(seed, 0)
		if (hashOf(op)&(tab.nSlots-1))/slotsPerPage != 0 {
			continue
		}
		model[op] = utxo.Entry{Value: types.Amount(seed), Height: uint64(seed)}
		tab.Put(op, model[op])
	}
	// Range walks every page in order through the one-page cache: each fault
	// past the spill of page 0 evicts a full page and reads beyond EOF.
	seen := map[types.OutPoint]utxo.Entry{}
	tab.Range(func(op types.OutPoint, e utxo.Entry) bool {
		if _, dup := seen[op]; dup {
			t.Fatalf("Range yields %v twice: a recycled buffer leaked its old slots", op)
		}
		seen[op] = e
		return true
	})
	if len(seen) != len(model) || tab.Len() != len(model) {
		t.Fatalf("Range saw %d entries, Len %d, model %d", len(seen), tab.Len(), len(model))
	}
	for op, e := range model {
		if seen[op] != e {
			t.Fatalf("entry %v: %+v, want %+v", op, seen[op], e)
		}
		if got, ok := tab.Get(op); !ok || got != e {
			t.Fatalf("Get %v after the walk: %+v present=%v", op, got, ok)
		}
	}
	// A key that probes from a never-written page must find it empty.
	for seed := int64(1 << 20); ; seed++ {
		op := outpoint(seed, 1)
		if (hashOf(op)&(tab.nSlots-1))/slotsPerPage < 10 {
			continue
		}
		if _, ok := tab.Get(op); ok {
			t.Fatalf("absent key %v found in a page past EOF", op)
		}
		break
	}
}

// BenchmarkPageFault times a Get against a table several times the size of
// its cache, cycling through the keys so most lookups fault.
func BenchmarkPageFault(b *testing.B) {
	tab, ops := faultingTable(b, 4, 600)
	before := tab.Stats().CacheMisses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Get(ops[i%len(ops)]); !ok {
			b.Fatal("entry missing")
		}
	}
	b.ReportMetric(float64(tab.Stats().CacheMisses-before)/float64(b.N), "faults/op")
}
