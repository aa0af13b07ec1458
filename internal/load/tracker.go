package load

import "bitcoinng/internal/chain"

// Tracker follows one node's main chain and keeps, incrementally, what a
// pacing loop needs from Confirmations: how many stream transactions the
// chain confirms and the first stream index it does not. Advance costs
// O(blocks that joined or left the chain since the last call) instead of a
// genesis-to-tip walk, which is what lets Cluster.Blast refresh its feedback
// every few slices of an arbitrarily long run.
//
// The full walk stays the oracle: after Advance(tip), Count() equals
// len(Confirmations(tip)) and Prefix() is the first gap in its sorted
// indices. The zero value is ready to use; a Tracker is not safe for
// concurrent use.
type Tracker struct {
	// path[h] is the main-chain block at height h as of the last Advance.
	path []*chain.Node
	// fresh is Advance's scratch list of blocks to connect, tip first.
	fresh []*chain.Node

	// confirmed is a bitset over stream indices; count is its population.
	// prefix is a lower bound on the first clear bit that Prefix tightens
	// lazily and a disconnect lowers.
	confirmed []uint64
	count     int64
	prefix    int64
}

// Advance moves the tracker to tip: it walks back from tip only to the first
// block already on the recorded path, unwinds the recorded blocks above that
// fork point (a reorganization), and applies the new ones oldest first.
func (t *Tracker) Advance(tip *chain.Node) {
	t.fresh = t.fresh[:0]
	n := tip
	for ; n != nil; n = n.Parent {
		if n.Height < uint64(len(t.path)) && t.path[n.Height] == n {
			break
		}
		t.fresh = append(t.fresh, n)
	}
	keep := 0
	if n != nil {
		keep = int(n.Height) + 1
	}
	for h := len(t.path) - 1; h >= keep; h-- {
		t.mark(t.path[h], false)
		t.path[h] = nil
	}
	t.path = t.path[:keep]
	for i := len(t.fresh) - 1; i >= 0; i-- {
		t.mark(t.fresh[i], true)
		t.path = append(t.path, t.fresh[i])
	}
	clear(t.fresh)
}

// mark sets or clears the bit of every stream transaction n's block carries.
func (t *Tracker) mark(n *chain.Node, on bool) {
	for _, tx := range n.Block().Transactions() {
		idx, ok := TxIndex(tx)
		if !ok || idx < 0 {
			continue
		}
		w, mask := int(idx/64), uint64(1)<<(uint64(idx)%64)
		for w >= len(t.confirmed) {
			t.confirmed = append(t.confirmed, 0)
		}
		if (t.confirmed[w]&mask != 0) == on {
			continue
		}
		t.confirmed[w] ^= mask
		if on {
			t.count++
		} else {
			t.count--
			if idx < t.prefix {
				t.prefix = idx
			}
		}
	}
}

// Count returns how many stream transactions the tracked chain confirms.
func (t *Tracker) Count() int64 { return t.count }

// Prefix returns the first stream index the tracked chain does not confirm:
// every index below it is confirmed.
func (t *Tracker) Prefix() int64 {
	for t.prefix/64 < int64(len(t.confirmed)) && t.confirmed[t.prefix/64]&(1<<(uint64(t.prefix)%64)) != 0 {
		t.prefix++
	}
	return t.prefix
}
