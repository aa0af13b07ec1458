package slots

import "testing"

// TestChunkedRecordsNeverMove writes records across many chunks, out of
// order, and requires every pointer handed out to stay the record's own:
// growing the index space copies the directory, never a record.
func TestChunkedRecordsNeverMove(t *testing.T) {
	var s Chunked[int64]
	if s.Get(0) != nil || s.Get(100) != nil {
		t.Fatal("an empty Chunked holds records")
	}
	order := []int32{3, 0, 200, 17, 9, 64, 1000, 8}
	ptrs := map[int32]*int64{}
	for _, i := range order {
		p := s.At(i)
		*p = int64(i) * 10
		ptrs[i] = p
	}
	for _, i := range order {
		if s.At(i) != ptrs[i] || s.Get(i) != ptrs[i] || *ptrs[i] != int64(i)*10 {
			t.Fatalf("record %d moved or changed", i)
		}
	}
	if p := s.Get(1); p == nil || *p != 0 {
		t.Error("an unwritten record of a used chunk does not read zero")
	}
	if s.Get(500) != nil {
		t.Error("a record of an unused chunk reads as present")
	}
}

// TestBitsHasWhatWasAdded adds indexes across word boundaries and checks
// membership of them and of their neighbours.
func TestBitsHasWhatWasAdded(t *testing.T) {
	var b Bits
	added := map[int32]bool{0: true, 63: true, 64: true, 130: true, 1000: true}
	for i := range added {
		b.Add(i)
	}
	for i := int32(0); i < 1100; i++ {
		if b.Has(i) != added[i] {
			t.Fatalf("index %d: Has = %v, want %v", i, b.Has(i), added[i])
		}
	}
}
