package blockstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// errDiskFull is the injected durability failure.
var errDiskFull = errors.New("injected: fsync failed")

// TestAppendSyncFailureUnwinds pins the durability bugfix: a failed fsync
// must surface as an Append error, unwind the unacknowledged record from
// disk, and poison the store so later calls cannot silently widen the gap
// between the index and the platter.
func TestAppendSyncFailureUnwinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := makeChain(t, 3)
	for _, b := range blocks[:2] {
		if err := s.Append(b, b.Time()); err != nil {
			t.Fatal(err)
		}
	}
	durable := s.size

	s.SetSyncHook(func() error { return errDiskFull })
	if err := s.Append(blocks[2], blocks[2].Time()); !errors.Is(err, errDiskFull) {
		t.Fatalf("Append under failing sync = %v, want injected error", err)
	}
	if s.Contains(blocks[2].Hash()) {
		t.Fatal("unacknowledged block was indexed")
	}
	// Sticky: every later mutation reports the original failure.
	if err := s.Append(blocks[2], blocks[2].Time()); !errors.Is(err, errDiskFull) {
		t.Fatalf("Append after poisoning = %v", err)
	}
	if err := s.Sync(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Sync after poisoning = %v", err)
	}
	if err := s.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close after poisoning = %v — the error was swallowed", err)
	}

	// The on-disk file must hold exactly the acknowledged prefix.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != durable {
		t.Fatalf("file size %d, want acknowledged prefix %d", info.Size(), durable)
	}
	r, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("reopen recovered %d blocks, want 2", r.Len())
	}
	for _, b := range blocks[:2] {
		if !r.Contains(b.Hash()) {
			t.Fatalf("acknowledged block %s lost", b.Hash().Short())
		}
	}
}

// FuzzAppendSyncFailure drives the reopen oracle under injected durability
// failures: whatever Append acknowledged before the disk "died" must be
// recovered exactly by a reopen, regardless of when the failure hits.
func FuzzAppendSyncFailure(f *testing.F) {
	f.Add(uint8(0))
	f.Add(uint8(1))
	f.Add(uint8(3))
	f.Add(uint8(200))
	f.Fuzz(func(t *testing.T, failAfter uint8) {
		path := filepath.Join(t.TempDir(), "blocks.dat")
		s, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		syncs := 0
		real := s.f.Sync
		s.SetSyncHook(func() error {
			if syncs >= int(failAfter) {
				return errDiskFull
			}
			syncs++
			return real()
		})
		blocks := makeChain(t, 8)
		acked := 0
		for _, b := range blocks {
			if err := s.Append(b, b.Time()); err != nil {
				if !errors.Is(err, errDiskFull) {
					t.Fatalf("unexpected append error: %v", err)
				}
				break
			}
			acked++
		}
		s.Close()

		r, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != acked {
			t.Fatalf("acknowledged %d blocks, reopen recovered %d", acked, r.Len())
		}
		got := r.Hashes()
		for i := 0; i < acked; i++ {
			if got[i] != blocks[i].Hash() {
				t.Fatalf("record %d: recovered %s, want %s", i, got[i].Short(), blocks[i].Hash().Short())
			}
		}
	})
}
