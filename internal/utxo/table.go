package utxo

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"bitcoinng/internal/types"
)

// The set's table is a persistent hash trie keyed by outpoint: a
// 32-way bitmap-compressed trie in canonical (CHAMP) form — a slot holds
// either one entry inline or a subtrie of at least two, and a delete that
// leaves a subtrie with one entry folds it back into its parent — so the
// shape, and with it the iteration order, is a function of the contents
// alone, never of the operation history that produced them.
//
// A mutation copies the nodes on the path it touches and shares the rest, so
// the root of a frozen table is an immutable value: any number of sets, on
// any goroutine, may hold it. Path copying per operation would make a block
// cost one root copy per input and output; instead every node carries the
// edit token of the batch that created it, and a batch mutates the nodes it
// created in place. Freezing a batch is dropping its token: no later batch
// can present it, so no published node is ever written again.

const (
	levelBits = 5
	fanout    = 1 << levelBits
	// maxDepth levels consume 60 of the 64 path bits. Outpoints that agree
	// on all of them share one collision bucket, kept sorted by outpoint.
	maxDepth = 12
)

// editToken identifies one batch of in-place mutations. It has a size so
// distinct tokens have distinct addresses.
type editToken struct{ _ byte }

// leaf is one stored entry. Leaves are immutable: an update replaces the
// leaf, so versions share them freely.
type leaf struct {
	op types.OutPoint
	e  Entry
}

// node is one trie level. leafMap and kidMap are disjoint: bit i set says
// branch i holds an inline entry (in leaves) or a subtrie (in kids), each
// slice ordered by branch number. A collision bucket (depth maxDepth) has
// both maps zero and its entries in leaves, ordered by outpoint.
type node struct {
	edit            *editToken
	leafMap, kidMap uint32
	leaves          []*leaf
	kids            []*node
}

// emptyRoot is the root of every empty table. Its edit token is nil, which
// no batch presents, so it is never mutated.
var emptyRoot = &node{}

// pathOf derives the trie path from the outpoint. TxIDs are cryptographic
// hashes, so their first eight bytes are already uniform; the index is
// spread by a Fibonacci multiplier so a transaction's outputs fan out at the
// root instead of sharing a path.
func pathOf(op *types.OutPoint) uint64 {
	return binary.LittleEndian.Uint64(op.TxID[:8]) ^ (uint64(op.Index)+1)*0x9E3779B97F4A7C15
}

// branch returns the bitmap bit of the path's branch at depth.
func branch(path uint64, depth int) uint32 {
	return 1 << (path >> (depth * levelBits) & (fanout - 1))
}

// slot returns the slice position of branch bit within a bitmap.
func slot(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

func compareOutPoints(a, b *types.OutPoint) int {
	if c := bytes.Compare(a.TxID[:], b.TxID[:]); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// bucketFind locates op in a collision bucket: its position and whether it
// is present (the insertion position when not). The search is written out so
// that op does not escape: every Get would otherwise pay a heap copy of its
// outpoint for a bucket it almost never reaches.
func (n *node) bucketFind(op *types.OutPoint) (int, bool) {
	lo, hi := 0, len(n.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareOutPoints(&n.leaves[mid].op, op) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.leaves) && n.leaves[lo].op == *op
}

// get returns the leaf stored under op, or nil.
func (n *node) get(op *types.OutPoint, path uint64) *leaf {
	for depth := 0; depth < maxDepth; depth++ {
		bit := branch(path, depth)
		if n.leafMap&bit != 0 {
			if l := n.leaves[slot(n.leafMap, bit)]; l.op == *op {
				return l
			}
			return nil
		}
		if n.kidMap&bit == 0 {
			return nil
		}
		n = n.kids[slot(n.kidMap, bit)]
	}
	if i, ok := n.bucketFind(op); ok {
		return n.leaves[i]
	}
	return nil
}

// editable returns n itself when the batch ed created it, and otherwise a
// copy the batch owns, with spare capacity for the inserts the caller is
// about to make (so the copy is the only allocation).
func (n *node) editable(ed *editToken, leafRoom, kidRoom int) *node {
	if n.edit == ed {
		return n
	}
	return &node{
		edit:    ed,
		leafMap: n.leafMap,
		kidMap:  n.kidMap,
		leaves:  cloneWithRoom(n.leaves, leafRoom),
		kids:    cloneWithRoom(n.kids, kidRoom),
	}
}

func cloneWithRoom[T any](s []T, room int) []T {
	if len(s)+room == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)+room), s...)
}

// put stores l, replacing any entry under the same outpoint, and reports
// whether the outpoint is new. It returns the node to hold in n's place: n
// itself when the batch already owned it.
func (n *node) put(ed *editToken, l *leaf, path uint64, depth int) (*node, bool) {
	if depth == maxDepth {
		i, found := n.bucketFind(&l.op)
		if found {
			n = n.editable(ed, 0, 0)
			n.leaves[i] = l
			return n, false
		}
		n = n.editable(ed, 1, 0)
		n.leaves = slices.Insert(n.leaves, i, l)
		return n, true
	}
	bit := branch(path, depth)
	switch {
	case n.leafMap&bit != 0:
		i := slot(n.leafMap, bit)
		old := n.leaves[i]
		if old.op == l.op {
			n = n.editable(ed, 0, 0)
			n.leaves[i] = l
			return n, false
		}
		// Two entries on one branch: push both into a subtrie.
		sub := join(ed, old, pathOf(&old.op), l, path, depth+1)
		n = n.editable(ed, 0, 1)
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafMap &^= bit
		n.kids = slices.Insert(n.kids, slot(n.kidMap, bit), sub)
		n.kidMap |= bit
		return n, true
	case n.kidMap&bit != 0:
		i := slot(n.kidMap, bit)
		kid, added := n.kids[i].put(ed, l, path, depth+1)
		if kid != n.kids[i] {
			n = n.editable(ed, 0, 0)
			n.kids[i] = kid
		}
		return n, added
	default:
		n = n.editable(ed, 1, 0)
		n.leaves = slices.Insert(n.leaves, slot(n.leafMap, bit), l)
		n.leafMap |= bit
		return n, true
	}
}

// join builds the subtrie, rooted at depth, that holds exactly the two
// leaves a and b (distinct outpoints whose paths agree above depth).
func join(ed *editToken, a *leaf, pathA uint64, b *leaf, pathB uint64, depth int) *node {
	if depth == maxDepth {
		if compareOutPoints(&a.op, &b.op) > 0 {
			a, b = b, a
		}
		return &node{edit: ed, leaves: []*leaf{a, b}}
	}
	bitA, bitB := branch(pathA, depth), branch(pathB, depth)
	if bitA == bitB {
		return &node{edit: ed, kidMap: bitA, kids: []*node{join(ed, a, pathA, b, pathB, depth+1)}}
	}
	if bitA > bitB {
		a, b = b, a
	}
	return &node{edit: ed, leafMap: bitA | bitB, leaves: []*leaf{a, b}}
}

// del removes op and reports whether it was present. It returns the node to
// hold in n's place; when op is absent that is n, untouched and uncopied.
func (n *node) del(ed *editToken, op *types.OutPoint, path uint64, depth int) (*node, bool) {
	if depth == maxDepth {
		i, found := n.bucketFind(op)
		if !found {
			return n, false
		}
		n = n.editable(ed, 0, 0)
		n.leaves = slices.Delete(n.leaves, i, i+1)
		return n, true
	}
	bit := branch(path, depth)
	switch {
	case n.leafMap&bit != 0:
		i := slot(n.leafMap, bit)
		if n.leaves[i].op != *op {
			return n, false
		}
		n = n.editable(ed, 0, 0)
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafMap &^= bit
		return n, true
	case n.kidMap&bit != 0:
		i := slot(n.kidMap, bit)
		kid, removed := n.kids[i].del(ed, op, path, depth+1)
		if !removed {
			return n, false
		}
		if len(kid.kids) == 0 && len(kid.leaves) == 1 {
			// The subtrie shrank to one entry: canonical form holds it
			// inline here (and, if that leaves this node with one entry
			// too, the caller folds it up in turn).
			n = n.editable(ed, 1, 0)
			n.kids = slices.Delete(n.kids, i, i+1)
			n.kidMap &^= bit
			n.leaves = slices.Insert(n.leaves, slot(n.leafMap, bit), kid.leaves[0])
			n.leafMap |= bit
			return n, true
		}
		if kid != n.kids[i] {
			n = n.editable(ed, 0, 0)
			n.kids[i] = kid
		}
		return n, true
	}
	return n, false
}

// each visits every leaf under n — inline entries by branch, then subtries by
// branch — until fn returns false, and reports whether it ran to the end.
func (n *node) each(fn func(l *leaf) bool) bool {
	for _, l := range n.leaves {
		if !fn(l) {
			return false
		}
	}
	for _, k := range n.kids {
		if !k.each(fn) {
			return false
		}
	}
	return true
}
