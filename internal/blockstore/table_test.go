package blockstore

import (
	"errors"
	"sync"
	"testing"

	"bitcoinng/internal/crypto"
)

// TestTableConcurrentIntern: two goroutines intern overlapping hash sets at
// once, as the two shards of a parallel run do, and every hash still gets
// exactly one ordinal — both sides see the same one, and the ordinals are
// dense, 0 to Len-1, each naming one hash. make race-faults runs it under
// -race.
func TestTableConcurrentIntern(t *testing.T) {
	const n = 2000
	hashes := make([]crypto.Hash, n)
	for i := range hashes {
		hashes[i] = crypto.HashBytes([]byte{byte(i), byte(i >> 8)})
	}
	tab := NewTable()
	// Goroutine 0 interns hashes [0, 3n/4) forward, goroutine 1 interns
	// [n/4, n) backward: the middle half is contended.
	var got [2]map[crypto.Hash]int32
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make(map[crypto.Hash]int32)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3*n/4; k++ {
				i := k
				if g == 1 {
					i = n - 1 - k
				}
				got[g][hashes[i]] = tab.Intern(hashes[i])
			}
		}()
	}
	wg.Wait()
	if tab.Len() != n {
		t.Fatalf("Len = %d after interning %d distinct hashes", tab.Len(), n)
	}
	named := make([]bool, n)
	for i, h := range hashes {
		o, ok := tab.Lookup(h)
		if !ok || o < 0 || int(o) >= n {
			t.Fatalf("hash %d: ordinal %d, %v", i, o, ok)
		}
		if named[o] {
			t.Fatalf("ordinal %d names two hashes", o)
		}
		named[o] = true
		for g := range got {
			if seen, ok := got[g][h]; ok && seen != o {
				t.Fatalf("hash %d: goroutine %d got ordinal %d, table holds %d", i, g, seen, o)
			}
		}
	}
}

// TestMemLookupsDoNotAllocate pins Mem's probes at zero allocations on a
// hit and on a miss alike: the lookup goes through the table without
// interning, and a miss returns ErrNotFound itself.
func TestMemLookupsDoNotAllocate(t *testing.T) {
	tab := NewTable()
	m := NewMem(tab)
	blocks := makeChain(t, 6)
	for i, b := range blocks[:4] {
		if err := m.Append(b, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// blocks[4] is named in the table by another Mem; blocks[5] by nobody.
	if err := NewMem(tab).Append(blocks[4], 0); err != nil {
		t.Fatal(err)
	}
	hit, named, unknown := blocks[1].Hash(), blocks[4].Hash(), blocks[5].Hash()
	for _, tc := range []struct {
		name string
		h    crypto.Hash
		want bool
	}{{"hit", hit, true}, {"miss, named elsewhere", named, false}, {"miss, unknown", unknown, false}} {
		var err error
		if a := testing.AllocsPerRun(100, func() {
			if m.Contains(tc.h) != tc.want {
				t.Fatalf("%s: Contains = %v", tc.name, !tc.want)
			}
			_, err = m.Get(tc.h)
		}); a != 0 {
			t.Errorf("%s: Contains+Get allocate %v times, want 0", tc.name, a)
		}
		if tc.want != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
			t.Errorf("%s: Get error %v", tc.name, err)
		}
	}
	if tab.Len() != 5 {
		t.Errorf("table Len = %d after lookups, want 5", tab.Len())
	}
}
