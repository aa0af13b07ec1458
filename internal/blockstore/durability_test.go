package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// memStore opens a store over m, on a private table.
func memStore(tb testing.TB, m *memFile) *Store {
	tb.Helper()
	s, err := open(m, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// appendScript is the durability tests' workload: eight blocks appended to an
// empty store, then Close. Eight appends and Close make nine syncs.
type appendScript struct {
	blocks []types.Block
	hashes []crypto.Hash
	clean  []byte // the file when every operation succeeds
	ends   []int  // ends[n] is where the first n records end in clean
}

func newAppendScript(tb testing.TB) *appendScript {
	sc := &appendScript{blocks: makeChain(tb, 8), ends: []int{0}}
	m := newMemFile(nil)
	s := memStore(tb, m)
	for i, b := range sc.blocks {
		if err := s.Append(b, sc.arrival(i)); err != nil {
			tb.Fatal(err)
		}
		sc.hashes = append(sc.hashes, b.Hash())
		sc.ends = append(sc.ends, int(s.size))
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	sc.clean = m.data
	return sc
}

func (sc *appendScript) arrival(i int) int64 { return int64(1000 + 7*i) }

// run plays the script's appends on m and returns the open store, how many
// appends it acknowledged and the error that stopped it, if one did: a node
// whose index failed appends nothing more.
func (sc *appendScript) run(tb testing.TB, m *memFile) (s *Store, acked int, err error) {
	s = memStore(tb, m)
	for i, b := range sc.blocks {
		if err = s.Append(b, sc.arrival(i)); err != nil {
			break
		}
		acked++
	}
	return s, acked, err
}

// reopen reopens img, over the table t, and checks what a node would boot
// from: a prefix of the written chain, holding at least the acked blocks, in a
// file cut to exactly those records — no torn tail kept.
func (sc *appendScript) reopen(img []byte, acked int, t *Table) error {
	m := newMemFile(img)
	s, err := open(m, t)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	n := s.Len()
	if n < acked || n > len(sc.hashes) {
		return fmt.Errorf("recovered %d blocks, %d acknowledged of %d", n, acked, len(sc.hashes))
	}
	for i, h := range s.Hashes() {
		if h != sc.hashes[i] {
			return fmt.Errorf("record %d is %s, the script wrote %s", i, h.Short(), sc.hashes[i].Short())
		}
	}
	if !bytes.Equal(m.data, sc.clean[:sc.ends[n]]) {
		return fmt.Errorf("recovered %d blocks in a %d-byte file, want their %d bytes", n, len(m.data), sc.ends[n])
	}
	return nil
}

// TestAppendSyncFailureUnwinds is a table over every way a failing sync meets
// the append script: syncs fail from the first one on, after one good sync,
// ..., only at Close (the ninth), or never. A failed sync must surface as an
// Append error, unwind the unacknowledged record, and poison the store, so
// later calls cannot silently widen the gap between the index and the disk;
// the file, and the synced bytes alone, must then hold exactly the
// acknowledged prefix.
func TestAppendSyncFailureUnwinds(t *testing.T) {
	sc := newAppendScript(t)
	for good := 0; good <= 9; good++ {
		t.Run(fmt.Sprint("after_", good), func(t *testing.T) {
			m := newMemFile(nil)
			m.goodSyncs = good
			s, acked, err := sc.run(t, m)
			if want := min(good, len(sc.blocks)); acked != want {
				t.Fatalf("acknowledged %d appends (err %v), want %d", acked, err, want)
			}
			if acked < len(sc.blocks) {
				if !errors.Is(err, errDiskFull) {
					t.Fatalf("Append under failing sync = %v, want the injected error", err)
				}
				if s.Contains(sc.hashes[acked]) {
					t.Fatal("unacknowledged block was indexed")
				}
				// Sticky: every later mutation and sync reports the original
				// failure.
				if err := s.Append(sc.blocks[acked], 1); !errors.Is(err, errDiskFull) {
					t.Fatalf("Append after poisoning = %v", err)
				}
				if err := s.Sync(); !errors.Is(err, errDiskFull) {
					t.Fatalf("Sync after poisoning = %v", err)
				}
			}
			if err := s.Close(); good < 9 && !errors.Is(err, errDiskFull) {
				t.Fatalf("Close = %v — the failure was swallowed", err)
			} else if good == 9 && err != nil {
				t.Fatalf("Close = %v", err)
			}
			if !bytes.Equal(m.data, sc.clean[:sc.ends[acked]]) || !bytes.Equal(m.durable, m.data) {
				t.Fatalf("file %d bytes, synced %d bytes; want the acknowledged prefix's %d", len(m.data), len(m.durable), sc.ends[acked])
			}
			if err := sc.reopen(m.data, acked, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzAppendSyncFailure drives the reopen oracle under injected sync failures:
// whatever Append acknowledged before the disk "died" must be recovered
// exactly by a reopen, regardless of when the failure hits. Past the script's
// nine syncs every input is the never-failing case.
func FuzzAppendSyncFailure(f *testing.F) {
	f.Add(uint8(0))
	f.Add(uint8(1))
	f.Add(uint8(3))
	f.Add(uint8(200))
	sc := newAppendScript(f)
	f.Fuzz(func(t *testing.T, failAfter uint8) {
		m := newMemFile(nil)
		m.goodSyncs = int(failAfter)
		s, acked, err := sc.run(t, m)
		if err != nil && !errors.Is(err, errDiskFull) {
			t.Fatalf("unexpected append error: %v", err)
		}
		s.Close()
		if want := min(int(failAfter), len(sc.blocks)); acked != want {
			t.Fatalf("acknowledged %d appends (err %v), want %d", acked, err, want)
		}
		if !bytes.Equal(m.durable, sc.clean[:sc.ends[acked]]) {
			t.Fatalf("synced %d bytes, want the acknowledged prefix's %d", len(m.durable), sc.ends[acked])
		}
		if err := sc.reopen(m.durable, acked, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashStates enumerates every crash of the append script, under every
// sync failure of TestAppendSyncFailureUnwinds: a crash in each write, sync
// and truncate the script issues, and after its last, and at each crash
// every file the crash model (memFile) allows. Every one must reopen to a
// prefix of the written chain that holds every acknowledged block, with no
// torn tail kept.
func TestCrashStates(t *testing.T) {
	sc := newAppendScript(t)
	table := NewTable() // a restarted node opens over its fleet's table
	states := 0
	for good := 0; good <= 9; good++ {
		probe := newMemFile(nil) // counts the operations the script issues
		probe.goodSyncs = good
		s, _, _ := sc.run(t, probe)
		s.Close()
		for crash := 0; crash <= probe.issued; crash++ {
			m := newMemFile(nil)
			m.goodSyncs, m.crashAt = good, crash
			s, acked, _ := sc.run(t, m)
			s.Close()
			m.crashImages(func(img []byte) {
				states++
				if err := sc.reopen(img, acked, table); err != nil {
					t.Fatalf("%d good syncs, crash in operation %d, a %d-byte file: %v", good, crash, len(img), err)
				}
			})
		}
	}
	t.Logf("%d crash states", states)
}
