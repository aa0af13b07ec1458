package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

func tempStore(t testing.TB) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func makeChain(t testing.TB, n int) []types.Block {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]types.Block, 0, n)
	prev := crypto.ZeroHash
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			// Mix in microblocks.
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
				Prev:       prev,
				MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
				TimeNanos:  int64(i),
				Target:     crypto.EasiestTarget,
				LeaderKey:  key.Public(),
			},
			Txs:          txs,
			SimulatedPoW: true,
		}
		blocks = append(blocks, kb)
		prev = kb.Hash()
	}
	return blocks
}

func TestAppendGetRoundTrip(t *testing.T) {
	s := tempStore(t)
	blocks := makeChain(t, 9)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 9 {
		t.Fatalf("len = %d", s.Len())
	}
	for _, b := range blocks {
		got, err := s.Get(b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != b.Hash() || got.Kind() != b.Kind() {
			t.Errorf("round trip mismatch for %s", b.Hash().Short())
		}
	}
	if _, err := s.Get(crypto.HashBytes([]byte("nope"))); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing block err = %v", err)
	}
}

func TestAppendIdempotent(t *testing.T) {
	s := tempStore(t)
	blocks := makeChain(t, 3)
	for i := 0; i < 3; i++ {
		for _, b := range blocks {
			if err := s.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Len() != 3 {
		t.Errorf("len = %d after duplicate appends", s.Len())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := makeChain(t, 12)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 12 {
		t.Fatalf("reopened len = %d", s2.Len())
	}
	// Replay preserves append order.
	var replayed []crypto.Hash
	if err := s2.Replay(func(b types.Block) error {
		replayed = append(replayed, b.Hash())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if replayed[i] != b.Hash() {
			t.Fatalf("replay order broken at %d", i)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := makeChain(t, 5)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a crash mid-append: chop bytes off the last record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 4 {
		t.Fatalf("len after torn tail = %d, want 4", s2.Len())
	}
	// The store accepts new appends after recovery.
	if err := s2.Append(blocks[4]); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Errorf("len after re-append = %d", s2.Len())
	}
}

func TestCorruptPayloadRecoversPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := makeChain(t, 3)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Record boundaries, for corrupting the middle record below.
	offsets := make([]int64, 0, 3)
	var off int64
	for _, b := range blocks {
		offsets = append(offsets, off)
		off += headerSize + int64(s.index[b.Hash()].length)
	}
	s.Close()

	// Flip a payload byte in the second record: reopen must recover exactly
	// the first record (the longest valid prefix) and truncate the rest.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+headerSize+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("len after corruption = %d, want 1", s2.Len())
	}
	if !s2.Contains(blocks[0].Hash()) {
		t.Error("surviving prefix lost the first record")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != offsets[1] {
		t.Errorf("file size after recovery = %d, want %d", info.Size(), offsets[1])
	}
	// The store accepts new appends after recovery, re-persisting what the
	// corruption cost.
	for _, b := range blocks[1:] {
		if err := s2.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Len() != 3 {
		t.Errorf("len after re-append = %d, want 3", s2.Len())
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := tempStore(t)
	blocks := makeChain(t, 1)
	if err := s.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(blocks[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close err = %v", err)
	}
	if _, err := s.Get(blocks[0].Hash()); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close err = %v", err)
	}
}

func TestReplayIntoSkipsInvalid(t *testing.T) {
	s := tempStore(t)
	blocks := makeChain(t, 6)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// An adder that rejects microblocks: they are skipped, not fatal.
	n, err := ReplayInto(s, func(b types.Block) error {
		if b.Kind() == types.KindMicro {
			return errors.New("no microblocks today")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // 6 blocks, 2 are microblocks (i=2, i=5)
		t.Errorf("connected %d, want 4", n)
	}
}

// TestAppendRecordBytesAndAllocations pins the append path's two promises:
// the record on disk is magic, kind, length, CRC and the block's wire
// encoding, byte for byte what an independent encoder writes — so stores
// written before the header and payload shared one buffer read back the same
// — and a steady-state Append allocates nothing per record: the encoding goes
// into the store's retained buffer, not a fresh payload and header.
func TestAppendRecordBytesAndAllocations(t *testing.T) {
	s := tempStore(t)
	s.SetSyncPolicy(SyncManual)
	blocks := makeChain(t, 400)
	var want []byte
	for _, b := range blocks[:100] {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		payload := wire.Encode(b)
		want = binary.LittleEndian.AppendUint32(want, recordMagic)
		want = append(want, byte(b.Kind()))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
	}
	got, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("store file differs from the reference encoding (%d vs %d bytes)", len(got), len(want))
	}

	next := 100
	for _, b := range blocks {
		b.Hash() // cached before measuring, as for any block a node accepted
	}
	// The index map and the order slice grow now and then; per record that
	// averages below one allocation, which AllocsPerRun reports as zero.
	if avg := testing.AllocsPerRun(250, func() {
		if err := s.Append(blocks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); avg != 0 {
		t.Fatalf("Append allocates %.0f objects per record, want 0", avg)
	}
}

// BenchmarkAppend times one record append under SyncManual (the harnesses'
// policy; fsync is timed by store.file_sync_ms in benchmark/).
func BenchmarkAppend(b *testing.B) {
	blocks := makeChain(b, 512)
	for _, blk := range blocks {
		blk.Hash()
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	var s *Store
	for i := 0; i < b.N; i++ {
		if i%len(blocks) == 0 {
			b.StopTimer()
			if s != nil {
				s.Close()
			}
			var err error
			if s, err = Open(filepath.Join(dir, fmt.Sprint("bench", i, ".dat"))); err != nil {
				b.Fatal(err)
			}
			s.SetSyncPolicy(SyncManual)
			b.StartTimer()
		}
		if err := s.Append(blocks[i%len(blocks)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
}
