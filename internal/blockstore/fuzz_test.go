package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// validStoreBytes builds the raw bytes of a healthy multi-record store, the
// seed material every fuzz mutation starts from.
func validStoreBytes(t testing.TB) []byte {
	t.Helper()
	m := newMemFile(nil)
	s := memStore(t, m)
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
	return m.data
}

// stored is one recovered record as the index serves it.
type stored struct {
	hash       crypto.Hash
	receivedAt int64
}

// refRecord is one record of the reference parse: what its header names and
// the payload it carries.
type refRecord struct {
	stored
	typ     wire.MsgType
	payload []byte
}

// honest reports whether the payload decodes to the block the header names.
func (r refRecord) honest() bool {
	b, err := types.DecodeBlockMsg(r.typ, r.payload)
	return err == nil && b.Hash() == r.hash
}

// referencePrefix independently parses the headers of the longest valid
// record prefix of data, returning the deduplicated records in order — the
// oracle the fuzzed Open must agree with byte for byte. Like the scan, it
// decodes no payload.
func referencePrefix(data []byte) []refRecord {
	var out []refRecord
	seen := make(map[crypto.Hash]bool)
	off := 0
	for off+headerSize <= len(data) {
		hdr := data[off : off+headerSize]
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
			break
		}
		length := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxBlockSize || off+headerSize+int(length) > len(data) {
			break
		}
		end := off + headerSize + int(length)
		if crc32.ChecksumIEEE(data[off+12:end]) != binary.LittleEndian.Uint32(hdr[8:12]) {
			break
		}
		if h := crypto.Hash(hdr[13:45]); !seen[h] {
			seen[h] = true
			at := int64(binary.LittleEndian.Uint64(hdr[53:61]))
			out = append(out, refRecord{stored{h, at}, wire.MsgType(hdr[12]), data[off+headerSize : end]})
		}
		off = end
	}
	return out
}

// forge rewrites the hash field of the record at off to h and recomputes its
// checksum: a record that passes every check the scan makes but lies about
// its block.
func forge(raw []byte, off int, h crypto.Hash) {
	end := off + headerSize + int(binary.LittleEndian.Uint32(raw[off+4:off+8]))
	copy(raw[off+13:off+45], h[:])
	binary.LittleEndian.PutUint32(raw[off+8:off+12], crc32.ChecksumIEEE(raw[off+12:end]))
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
// truncations, bit-flips, garbage, forged records — at a store opened over
// them, in a memory file, so that no exec waits on a disk. Reopening must
// never panic, must recover exactly the longest valid record prefix with its
// arrival times, and must leave the file re-appendable. Replay serves each
// recovered block in order, and stops with ErrHashMismatch exactly at the
// first record whose payload is not the block its header names. The one input
// Open refuses is a file that starts with an earlier layout's magic, which it
// must leave byte-for-byte untouched.
func FuzzBlockstoreReopen(f *testing.F) {
	raw := validStoreBytes(f)
	second := headerSize + int(binary.LittleEndian.Uint32(raw[4:8])) // record 2's offset
	f.Add(raw)
	f.Add(raw[:len(raw)-5])             // torn tail
	f.Add(raw[:headerSize/2])           // partial first header
	f.Add([]byte{})                     // empty store
	flip := append([]byte(nil), raw...) // payload bit-flip in record 2
	flip[second+headerSize+2] ^= 0x40
	f.Add(flip)
	magic := append([]byte(nil), raw...) // magic smashed mid-file
	magic[len(raw)/2] ^= 0xff
	f.Add(magic)
	at := append([]byte(nil), raw...) // arrival-time bit-flip in record 2
	at[second+53] ^= 0x01
	f.Add(at)
	forged := append([]byte(nil), raw...) // record 2 names another block
	forge(forged, second, crypto.HashBytes([]byte("another block")))
	f.Add(forged)
	b, err := types.DecodeBlockMsg(wire.MsgType(raw[12]), raw[headerSize:second])
	if err != nil {
		f.Fatal(err)
	}
	for _, magic := range oldMagics {
		f.Add(oldRecord(magic, b)) // an earlier layout, refused untouched
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMemFile(bytes.Clone(data))
		s, err := open(m, nil)
		if len(data) >= 4 && slices.Contains(oldMagics, binary.LittleEndian.Uint32(data)) {
			if !errors.Is(err, ErrOldFormat) {
				t.Fatalf("old-format file opened with err %v, want ErrOldFormat", err)
			}
			if !bytes.Equal(m.data, data) {
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
		hs := s.Hashes()
		if len(hs) != len(want) {
			t.Fatalf("recovered %d records, reference prefix has %d", len(hs), len(want))
		}
		for i := range want {
			if hs[i] != want[i].hash {
				t.Fatalf("record %d: recovered %s, want %s", i, hs[i].Short(), want[i].hash.Short())
			}
		}
		var got []stored
		err = s.Replay(func(b types.Block, receivedAt int64) error {
			got = append(got, stored{b.Hash(), receivedAt})
			return nil
		})
		for i := range got {
			if got[i] != want[i].stored {
				t.Fatalf("record %d: replayed %s at %d, want %s at %d",
					i, got[i].hash.Short(), got[i].receivedAt, want[i].hash.Short(), want[i].receivedAt)
			}
		}
		switch {
		case err == nil && len(got) != len(want):
			t.Fatalf("replayed %d records, reference prefix has %d", len(got), len(want))
		case err == nil:
		case !errors.Is(err, ErrHashMismatch) || len(got) >= len(want):
			t.Fatalf("replay stopped after %d of %d records: %v", len(got), len(want), err)
		case want[len(got)].honest():
			t.Fatalf("record %d refused, but its payload is the block it names: %v", len(got), err)
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
