package validate

import (
	"errors"
	"sync/atomic"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

func key(b byte) Key {
	return Key{Block: crypto.HashBytes([]byte{b}), Rules: Fingerprint(crypto.HashBytes([]byte("r")))}
}

func TestCacheStoreLookup(t *testing.T) {
	c := NewCache(8)
	if _, ok := c.Lookup(key(1)); ok {
		t.Fatal("lookup hit on empty cache")
	}
	want := &ConnectResult{FeeTotal: 42}
	c.Store(key(1), want)
	got, ok := c.Lookup(key(1))
	if !ok || got != want {
		t.Fatalf("lookup = %v, %v; want stored result", got, ok)
	}
	// Same block under different rules is a distinct universe.
	other := Key{Block: key(1).Block, Rules: Fingerprint(crypto.HashBytes([]byte("other")))}
	if _, ok := c.Lookup(other); ok {
		t.Fatal("different fingerprint shared a cache entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() <= 0.33 || st.HitRate() >= 0.34 {
		t.Fatalf("hit rate = %f", st.HitRate())
	}
}

func TestCacheDuplicateStoreKeepsFirst(t *testing.T) {
	c := NewCache(8)
	first := &ConnectResult{FeeTotal: 1}
	if kept := c.Store(key(1), first); kept != first {
		t.Fatal("first store did not report its own result as kept")
	}
	if kept := c.Store(key(1), &ConnectResult{FeeTotal: 2}); kept != first {
		t.Fatal("duplicate store did not report the result the cache kept")
	}
	got, _ := c.Lookup(key(1))
	if got != first {
		t.Fatal("duplicate store replaced the first result")
	}
}

// segKey builds a key that lands in segment seg with a distinguishing tag.
func segKey(t *testing.T, seg byte, tag byte) Key {
	t.Helper()
	for b := 0; b < 1<<16; b++ {
		k := Key{
			Block: crypto.HashBytes([]byte{byte(b), byte(b >> 8), tag}),
			Rules: Fingerprint(crypto.HashBytes([]byte{tag})),
		}
		if k.Block[0]&(cacheSegments-1) == seg {
			return k
		}
	}
	t.Fatal("could not land a key in the segment")
	return Key{}
}

func TestCacheFIFOEviction(t *testing.T) {
	// The bound is enforced per segment (max/cacheSegments each, rounded
	// up), so the whole cache never exceeds max+cacheSegments-1 entries.
	c := NewCache(cacheSegments) // one entry per segment
	var keys []Key
	for i := byte(0); i < 4; i++ {
		k := segKey(t, 3, i) // all in one segment
		keys = append(keys, k)
		c.Store(k, &ConnectResult{FeeTotal: types.Amount(i)})
	}
	if st := c.Stats(); st.Entries > 1 {
		t.Fatalf("segment grew past its bound: %d entries", st.Entries)
	}
	// The newest entry survives; the older ones were evicted FIFO.
	if _, ok := c.Lookup(keys[3]); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Lookup(keys[0]); ok {
		t.Fatal("oldest entry survived past the bound")
	}

	// Across segments the global bound holds up to segment-grid rounding.
	big := NewCache(4)
	for b := byte(0); b < 200; b++ {
		big.Store(key(b), &ConnectResult{FeeTotal: types.Amount(b)})
	}
	if st := big.Stats(); st.Entries > 4+cacheSegments-1 {
		t.Fatalf("cache grew past its rounded bound: %d entries", st.Entries)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	params := types.DefaultParams()
	base := FingerprintOf("proto", params)
	if base != FingerprintOf("proto", params) {
		t.Fatal("fingerprint not deterministic")
	}
	if base == FingerprintOf("other", params) {
		t.Fatal("different rules id, same fingerprint")
	}
	tweaked := params
	tweaked.Subsidy++
	if base == FingerprintOf("proto", tweaked) {
		t.Fatal("different params, same fingerprint")
	}
}

func TestPoolRunCoversAllItemsOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		const n = 100
		var counts [n]atomic.Int32
		p.Run(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestPoolWarmTransactionsCachesVerdicts(t *testing.T) {
	// A coinbase-style transaction is valid and cacheable without context.
	txs := make([]*types.Transaction, 32)
	for i := range txs {
		txs[i] = &types.Transaction{
			Kind:    types.TxCoinbase,
			Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{byte(i)}}},
			Height:  uint64(i),
		}
	}
	NewPool(4).WarmTransactions(txs)
	for i, tx := range txs {
		if err := tx.CheckWellFormed(); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if tx.WireSize() == 0 {
			t.Fatalf("tx %d: size not primed", i)
		}
	}
	// Invalid transactions keep failing after a warm pass.
	bad := &types.Transaction{Kind: types.TxRegular}
	NewPool(2).WarmTransactions([]*types.Transaction{bad})
	if err := bad.CheckWellFormed(); !errors.Is(err, types.ErrNoOutputs) {
		t.Fatalf("bad tx verdict = %v", err)
	}
}
