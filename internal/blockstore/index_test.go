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
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// chainIndex is the surface Store and Mem share, stated here because
// store.ChainIndex sits above this package.
type chainIndex interface {
	Append(b types.Block, receivedAt int64) error
	Get(h crypto.Hash) (types.Block, error)
	Contains(h crypto.Hash) bool
	Len() int
	Hashes() []crypto.Hash
	Replay(fn func(b types.Block, receivedAt int64) error) error
	Sync() error
	Close() error
}

// TestIndexContract drives the behaviour both indexes share — append order,
// lookups, a duplicate append keeping the first arrival time — and checks
// that a reopened index replays the same (block, receivedAt) pairs, so a
// rebuilt node's first-seen tie-break sees the inputs its first life
// recorded. Reopening a Mem hands back the same archive, as the harness does
// across a simulated crash.
func TestIndexContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		open   func(t *testing.T) chainIndex
		reopen func(t *testing.T, old chainIndex) chainIndex
	}{
		{
			name: "store",
			open: func(t *testing.T) chainIndex { return tempStore(t) },
			reopen: func(t *testing.T, old chainIndex) chainIndex {
				if err := old.Close(); err != nil {
					t.Fatal(err)
				}
				s, err := Open(old.(*Store).f.Name())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			},
		},
		{
			name:   "mem",
			open:   func(*testing.T) chainIndex { return NewMem(nil) },
			reopen: func(_ *testing.T, old chainIndex) chainIndex { return old },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := tc.open(t)
			blocks := makeChain(t, 6)
			var want []stored
			for i, b := range blocks {
				if err := ix.Append(b, int64(1000+3*i)); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				want = append(want, stored{b.Hash(), int64(1000 + 3*i)})
			}
			if err := ix.Append(blocks[2], 9999); err != nil {
				t.Fatal(err)
			}
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
			check := func(ix chainIndex, when string) {
				t.Helper()
				if ix.Len() != len(blocks) {
					t.Fatalf("%s: Len = %d, want %d", when, ix.Len(), len(blocks))
				}
				hs := ix.Hashes()
				for i, b := range blocks {
					if hs[i] != b.Hash() || !ix.Contains(b.Hash()) {
						t.Fatalf("%s: block %d missing or out of order", when, i)
					}
					if got, err := ix.Get(b.Hash()); err != nil || got.Hash() != b.Hash() {
						t.Fatalf("%s: Get(%d): %v", when, i, err)
					}
				}
				got := replayed(t, ix)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: Replay %d = (%s, %d), want (%s, %d)", when, i,
							got[i].hash.Short(), got[i].receivedAt, want[i].hash.Short(), want[i].receivedAt)
					}
				}
			}
			check(ix, "first life")
			r := tc.reopen(t, ix)
			check(r, "reopened")
			// A block the first life stored stays a no-op to append.
			if err := r.Append(blocks[0], 99999); err != nil {
				t.Fatal(err)
			}
			check(r, "after duplicate append")
		})
	}

	// Two Mems over one table, as a fleet's nodes share one: the table only
	// names blocks, so what one Mem stores stays invisible to the other, and
	// each keeps its own first arrival time for a block both store.
	t.Run("two mems one table", func(t *testing.T) {
		tab := NewTable()
		a, b := NewMem(tab), NewMem(tab)
		blocks := makeChain(t, 4)
		add := func(m *Mem, i int, receivedAt int64) {
			t.Helper()
			if err := m.Append(blocks[i], receivedAt); err != nil {
				t.Fatal(err)
			}
		}
		add(a, 0, 10)
		add(a, 1, 11)
		add(a, 2, 12)
		add(b, 2, 50)
		add(b, 3, 53) // named by b alone
		add(a, 2, 99) // duplicates: each keeps its first time
		add(b, 2, 98)
		h := func(i int) crypto.Hash { return blocks[i].Hash() }
		wantA := []stored{{h(0), 10}, {h(1), 11}, {h(2), 12}}
		wantB := []stored{{h(2), 50}, {h(3), 53}}
		if tab.Len() != 4 {
			t.Fatalf("table Len = %d, want 4", tab.Len())
		}
		for _, tc := range []struct {
			name   string
			m      *Mem
			want   []stored
			absent []int
		}{{"a", a, wantA, []int{3}}, {"b", b, wantB, []int{0, 1}}} {
			if tc.m.Len() != len(tc.want) {
				t.Errorf("%s: Len = %d, want %d", tc.name, tc.m.Len(), len(tc.want))
			}
			hs := tc.m.Hashes()
			got := replayed(t, tc.m)
			if len(hs) != len(tc.want) || len(got) != len(tc.want) {
				t.Fatalf("%s: %d hashes and %d replayed, want %d", tc.name, len(hs), len(got), len(tc.want))
			}
			for i, w := range tc.want {
				if hs[i] != w.hash || got[i] != w {
					t.Errorf("%s: record %d = (%s, %d), want (%s, %d)", tc.name, i,
						got[i].hash.Short(), got[i].receivedAt, w.hash.Short(), w.receivedAt)
				}
			}
			for _, i := range tc.absent {
				if tc.m.Contains(h(i)) {
					t.Errorf("%s: Contains block %d, stored only in the other Mem", tc.name, i)
				}
				if _, err := tc.m.Get(h(i)); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: Get block %d = %v, want ErrNotFound", tc.name, i, err)
				}
			}
		}
	})
}

// legacyRecord encodes b in the record layout that kept arrival times in a
// separate sidecar: magic, kind, length, CRC of the payload, payload.
func legacyRecord(b types.Block) []byte {
	payload := wire.Encode(b)
	rec := binary.LittleEndian.AppendUint32(nil, legacyMagic)
	rec = append(rec, byte(b.Kind()))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// TestOldFormatRefused: a chain written before arrival times joined the
// record must not scan as corruption — that would truncate an ngnode
// -store file:<dir> chain to nothing. Open refuses it by name and leaves it as it was.
func TestOldFormatRefused(t *testing.T) {
	blocks := makeChain(t, 2)
	raw := append(legacyRecord(blocks[0]), legacyRecord(blocks[1])...)
	path := filepath.Join(t.TempDir(), "old.blocks")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path); !errors.Is(err, ErrOldFormat) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open(old format) err = %v, want ErrOldFormat", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, raw) {
		t.Fatalf("refused file changed: %d bytes, was %d", len(after), len(raw))
	}
}

// writeChain appends blocks with arrival times 1000, 1001, ... to a fresh
// store file and returns its path and each record's offset.
func writeChain(t *testing.T, blocks []types.Block) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "n0.blocks")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, len(blocks))
	for i, b := range blocks {
		offsets[i] = s.size
		if err := s.Append(b, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path, offsets
}

// TestArrivalTimeFlipDropsSuffix: the CRC covers the arrival time, so one
// flipped byte of a stored time fails its record, and reopening recovers the
// prefix before it — never the block with a wrong time.
func TestArrivalTimeFlipDropsSuffix(t *testing.T) {
	blocks := makeChain(t, 4)
	path, offsets := writeChain(t, blocks)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[2]+13] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := replayed(t, s)
	want := []stored{{blocks[0].Hash(), 1000}, {blocks[1].Hash(), 1001}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recovered %v, want the two records before the flipped time", got)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != offsets[2] {
		t.Fatalf("file not truncated to the valid prefix (%d bytes): %v", offsets[2], err)
	}
}

// TestTornRecordLosesBlockAndTime: a crash that tears the final record —
// inside its arrival time or inside its block — loses the block and its time
// together. The next append of that block records the new arrival, not a
// stale one left behind.
func TestTornRecordLosesBlockAndTime(t *testing.T) {
	blocks := makeChain(t, 3)
	for _, cut := range []struct {
		name string
		keep func(last int64) int64
	}{
		{"in time", func(last int64) int64 { return last + 15 }},
		{"in block", func(last int64) int64 { return last + headerSize + 5 }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			path, offsets := writeChain(t, blocks)
			if err := os.Truncate(path, cut.keep(offsets[2])); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := replayed(t, s); len(got) != 2 || s.Contains(blocks[2].Hash()) {
				t.Fatalf("recovered %v, want the first two records only", got)
			}
			if err := s.Append(blocks[2], 5000); err != nil {
				t.Fatal(err)
			}
			if got := replayed(t, s); len(got) != 3 || got[2] != (stored{blocks[2].Hash(), 5000}) {
				t.Fatalf("after re-append: %v, want the torn block at its new time 5000", got)
			}
		})
	}
}
