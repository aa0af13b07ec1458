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

func TestAppendGetRoundTrip(t *testing.T) {
	s := tempStore(t)
	blocks := makeChain(t, 9)
	for _, b := range blocks {
		if err := s.Append(b, b.Time()); err != nil {
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
			if err := s.Append(b, b.Time()); err != nil {
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
		if err := s.Append(b, b.Time()); err != nil {
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
	if err := s2.Replay(func(b types.Block, _ int64) error {
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
		if err := s.Append(b, b.Time()); err != nil {
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
	if err := s2.Append(blocks[4], blocks[4].Time()); err != nil {
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
		if err := s.Append(b, b.Time()); err != nil {
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
		if err := s2.Append(b, b.Time()); err != nil {
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
	if err := s.Append(blocks[0], blocks[0].Time()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(blocks[0], blocks[0].Time()); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close err = %v", err)
	}
	if _, err := s.Get(blocks[0].Hash()); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close err = %v", err)
	}
}

// TestAppendRecordBytesAndAllocations pins the append path's two promises:
// the record on disk is magic, kind, length, CRC, arrival time and the
// block's wire encoding, byte for byte what an independent encoder writes,
// and a steady-state Append allocates nothing per record: the encoding goes
// into the store's retained buffer, not a fresh payload and header. The fsync
// is stubbed out; it allocates nothing and would only slow the loop.
func TestAppendRecordBytesAndAllocations(t *testing.T) {
	s := tempStore(t)
	s.SetSyncHook(func() error { return nil })
	blocks := makeChain(t, 400)
	var want []byte
	for i, b := range blocks[:100] {
		receivedAt := int64(7000 + 3*i)
		if err := s.Append(b, receivedAt); err != nil {
			t.Fatal(err)
		}
		body := binary.LittleEndian.AppendUint64(nil, uint64(receivedAt))
		body = append(body, wire.Encode(b)...)
		want = binary.LittleEndian.AppendUint32(want, recordMagic)
		want = append(want, byte(b.Kind()))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(body)-8))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
		want = append(want, body...)
	}
	got, err := os.ReadFile(s.f.Name())
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
		if err := s.Append(blocks[next], blocks[next].Time()); err != nil {
			t.Fatal(err)
		}
		next++
	}); avg != 0 {
		t.Fatalf("Append allocates %.0f objects per record, want 0", avg)
	}
}

// TestGetReadsIntoOneBuffer: every Get reads its record into the store's one
// read buffer, so after the largest record the read allocates nothing — and
// a block decoded from that buffer owns its bytes: once later reads have
// overwritten the buffer it still re-encodes to exactly what was appended.
func TestGetReadsIntoOneBuffer(t *testing.T) {
	s := tempStore(t)
	s.SetSyncHook(func() error { return nil })
	blocks := makeChain(t, 12)
	// Padding in a coinbase gives the records different lengths and puts a
	// VarBytes field in every key block.
	for i, b := range blocks {
		if kb, ok := b.(*types.KeyBlock); ok {
			kb.Txs[0].Padding = bytes.Repeat([]byte{byte(i)}, 50*i)
		}
	}
	for _, b := range blocks {
		if err := s.Append(b, b.Time()); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]types.Block, len(blocks))
	for i, b := range blocks {
		var err error
		if got[i], err = s.Get(b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	clear(s.buf[:cap(s.buf)])
	for i, b := range got {
		if !bytes.Equal(wire.Encode(b), wire.Encode(blocks[i])) {
			t.Errorf("block %d: decoded copy changed when the read buffer was reused", i)
		}
	}

	refs := make([]recordRef, 0, len(blocks))
	for _, b := range blocks {
		refs = append(refs, s.index[b.Hash()])
	}
	next := 0
	if avg := testing.AllocsPerRun(100, func() {
		ref := refs[next%len(refs)]
		if _, err := s.read(ref.offset, ref.length); err != nil {
			t.Fatal(err)
		}
		next++
	}); avg != 0 {
		t.Errorf("a record read allocates %.1f times, want 0", avg)
	}
}

// BenchmarkAppend times one record append — encoding, checksum and write —
// with the fsync stubbed out through SetSyncHook; benchmark/'s
// store.index_append_us_per_block times appends with the fsync.
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
			s.SetSyncHook(func() error { return nil })
			b.StartTimer()
		}
		if err := s.Append(blocks[i%len(blocks)], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
}
