package load

import (
	"cmp"
	"slices"

	"bitcoinng/internal/chain"
)

// Tracker follows one node's main chain and keeps, incrementally, what a
// pacing loop and the end-of-run report need from Confirmations. Advance
// costs O(blocks that joined or left the chain since the last call) instead
// of a genesis-to-tip walk, which is what lets Cluster.Blast refresh its
// feedback every few slices of an arbitrarily long run. A block's body is
// read once, when it joins the path, for its runs of consecutive stream
// indices; a block leaving the path unmarks from those runs. Advanced while
// the joining bodies are resident (before compaction evicts them), the
// tracker is the report and never reloads a body.
//
// The full walk stays the oracle: after Advance(tip), Count() equals
// len(Confirmations(tip)), Prefix() is the first gap in its sorted indices
// and Confirmations() is the same list. The zero value is ready to use; a
// Tracker is not safe for concurrent use.
type Tracker struct {
	// path[h] is the main-chain block at height h as of the last Advance;
	// its runs are runs[ends[h-1]:ends[h]].
	path []*chain.Node
	ends []int
	runs []indexRun
	// fresh is Advance's scratch list of blocks to connect, tip first.
	fresh []*chain.Node

	// confirmed is a bitset over stream indices; count is its population.
	// prefix is a lower bound on the first clear bit that Prefix tightens
	// lazily and a disconnect lowers.
	confirmed []uint64
	count     int64
	prefix    int64
}

// indexRun is the stream indices [lo, hi) one block carries consecutively.
type indexRun struct{ lo, hi int64 }

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
	start := 0 // the unwound blocks' first run
	if keep > 0 {
		start = t.ends[keep-1]
	}
	for _, r := range t.runs[start:] {
		t.mark(r, false)
	}
	clear(t.path[keep:])
	t.path, t.ends, t.runs = t.path[:keep], t.ends[:keep], t.runs[:start]
	for i := len(t.fresh) - 1; i >= 0; i-- {
		var r indexRun // the open run
		for _, tx := range t.fresh[i].Block().Transactions() {
			if idx, ok := TxIndex(tx); ok && idx >= 0 {
				if idx != r.hi {
					t.mark(r, true)
					r.lo = idx
				}
				r.hi = idx + 1
			}
		}
		t.mark(r, true)
		t.path, t.ends = append(t.path, t.fresh[i]), append(t.ends, len(t.runs))
	}
	clear(t.fresh)
}

// mark records a non-empty r and sets its bits, or clears them.
func (t *Tracker) mark(r indexRun, on bool) {
	if on && r.hi > r.lo {
		t.runs = append(t.runs, r)
	}
	for idx := r.lo; idx < r.hi; idx++ {
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
			t.prefix = min(t.prefix, idx)
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

// Confirmations returns what Confirmations(tip) returns for the last
// Advance's tip, read from the recorded runs without touching a body: every
// stream transaction on the path with its block's header timestamp, sorted
// by index.
func (t *Tracker) Confirmations() []Confirmation {
	out := make([]Confirmation, 0, t.count)
	start := 0
	for h, end := range t.ends {
		for _, r := range t.runs[start:end] {
			for idx := r.lo; idx < r.hi; idx++ {
				out = append(out, Confirmation{Index: idx, Time: t.path[h].Time()})
			}
		}
		start = end
	}
	slices.SortFunc(out, func(a, b Confirmation) int { return cmp.Compare(a.Index, b.Index) })
	return out
}
