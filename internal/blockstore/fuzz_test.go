package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
)

// validStoreBytes builds the raw bytes of a healthy multi-record store, the
// seed material every fuzz mutation starts from.
func validStoreBytes(t interface {
	Helper()
	Fatal(...any)
	TempDir() string
}) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.dat")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := crypto.GenerateKey(sim.NewRand(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	prev := crypto.ZeroHash
	for i := 0; i < 4; i++ {
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{
				Prev:      prev,
				TxRoot:    crypto.MerkleRoot(nil),
				TimeNanos: int64(i),
			},
		}
		mb.Header.Sign(key)
		if err := s.Append(mb, int64(1000+7*i)); err != nil {
			t.Fatal(err)
		}
		prev = mb.Hash()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stored is one recovered record as the index serves it.
type stored struct {
	hash       crypto.Hash
	receivedAt int64
}

// referencePrefix independently parses the longest valid record prefix of
// data, returning the deduplicated (hash, receivedAt) pairs in order — the
// oracle the fuzzed Open must agree with byte for byte.
func referencePrefix(data []byte) []stored {
	var out []stored
	seen := make(map[crypto.Hash]bool)
	off := 0
	for off+headerSize <= len(data) {
		if binary.LittleEndian.Uint32(data[off:off+4]) != recordMagic {
			break
		}
		kind := types.BlockKind(data[off+4])
		length := binary.LittleEndian.Uint32(data[off+5 : off+9])
		wantCRC := binary.LittleEndian.Uint32(data[off+9 : off+13])
		if length > maxBlockSize || off+headerSize+int(length) > len(data) {
			break
		}
		if crc32.ChecksumIEEE(data[off+13:off+headerSize+int(length)]) != wantCRC {
			break
		}
		receivedAt := int64(binary.LittleEndian.Uint64(data[off+13 : off+21]))
		b, err := decodeBlock(kind, data[off+headerSize:off+headerSize+int(length)])
		if err != nil {
			break
		}
		if h := b.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, stored{h, receivedAt})
		}
		off += headerSize + int(length)
	}
	return out
}

// replayed lists what an index serves through Replay.
func replayed(t testing.TB, ix interface {
	Replay(func(types.Block, int64) error) error
}) []stored {
	t.Helper()
	var out []stored
	if err := ix.Replay(func(b types.Block, receivedAt int64) error {
		out = append(out, stored{b.Hash(), receivedAt})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzBlockstoreReopen throws arbitrary mutations of a valid store file —
// truncations, bit-flips, garbage — at Open. Reopening must never panic,
// must recover exactly the longest valid record prefix with its arrival
// times, and must leave the file re-appendable. The one input Open refuses is
// a file that starts with the old format's magic, which it must leave
// byte-for-byte untouched.
func FuzzBlockstoreReopen(f *testing.F) {
	raw := validStoreBytes(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-5])             // torn tail
	f.Add(raw[:headerSize/2])           // partial first header
	f.Add([]byte{})                     // empty store
	flip := append([]byte(nil), raw...) // payload bit-flip in record 2
	flip[headerSize+int(binary.LittleEndian.Uint32(raw[5:9]))+headerSize+2] ^= 0x40
	f.Add(flip)
	magic := append([]byte(nil), raw...) // magic smashed mid-file
	magic[len(raw)/2] ^= 0xff
	f.Add(magic)
	at := append([]byte(nil), raw...) // arrival-time bit-flip in record 2
	at[headerSize+int(binary.LittleEndian.Uint32(raw[5:9]))+13] ^= 0x01
	f.Add(at)
	b, err := decodeBlock(types.BlockKind(raw[4]), raw[headerSize:headerSize+int(binary.LittleEndian.Uint32(raw[5:9]))])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacyRecord(b)) // the old format, refused untouched

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "blocks.dat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, nil)
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) == legacyMagic {
			if !errors.Is(err, ErrOldFormat) {
				t.Fatalf("old-format file opened with err %v, want ErrOldFormat", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("refused old-format file was modified")
			}
			return
		}
		if err != nil {
			// Only genuine I/O failures may surface; corruption must not.
			t.Fatalf("open rejected corrupt-but-readable input: %v", err)
		}
		defer s.Close()
		want := referencePrefix(data)
		got := replayed(t, s)
		if len(got) != len(want) {
			t.Fatalf("recovered %d records, reference prefix has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: recovered %s at %d, want %s at %d",
					i, got[i].hash.Short(), got[i].receivedAt, want[i].hash.Short(), want[i].receivedAt)
			}
		}
		// The recovered store must accept appends (the restart path
		// re-persists what corruption cost).
		key, err := crypto.GenerateKey(sim.NewRand(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{
				Prev:      crypto.HashBytes([]byte("post-recovery")),
				TxRoot:    crypto.MerkleRoot(nil),
				TimeNanos: 99,
			},
		}
		mb.Header.Sign(key)
		if err := s.Append(mb, mb.Time()); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if !s.Contains(mb.Hash()) {
			t.Fatal("append after recovery not indexed")
		}
	})
}
