// Package chain implements blockchain state management shared by every
// protocol in this repository: a block tree indexed by hash, pluggable fork
// choice (heaviest chain for Bitcoin and Bitcoin-NG, heaviest subtree for
// GHOST), and an active chain whose UTXO state advances and rolls back
// through reorganizations.
//
// The package is protocol-agnostic: protocol-specific validation (difficulty
// schedules, microblock signatures and spacing, coinbase economics, poison
// evidence) plugs in through the Protocol interface, and fork choice through
// the ForkChoice interface.
package chain

import (
	"fmt"
	"iter"
	"slices"
	"sync/atomic"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/slots"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// Node is a block's header in the tree: what is a function of the block and
// its parent's header, and so the same wherever the block is held. A fleet
// sharing one blockstore.Table builds each header once; a store's own view
// of a block (arrival time, children, verdict, undo record) lives in the
// Store. A Node is immutable once published, except that a store may evict
// its archived body, which Block reloads on demand, so the tree's resident
// size does not grow with transaction volume.
type Node struct {
	hash   crypto.Hash
	time   int64
	kind   types.BlockKind
	target crypto.CompactTarget
	// ord is the block's ordinal in the table the header was interned in;
	// -1 for a detached node.
	ord int32

	Parent *Node // nil for genesis

	// Height counts all blocks from genesis, microblocks included.
	Height uint64
	// KeyHeight counts only proof-of-work blocks (Bitcoin blocks or
	// Bitcoin-NG key blocks); it drives coinbase maturity and difficulty
	// retargeting.
	KeyHeight uint64
	// Weight is the cumulative work from genesis. Microblocks contribute
	// zero (§4.2: microblocks do not affect the weight of the chain).
	Weight crypto.Work
	// KeyAncestor is the nearest ancestor (or self) that is a PoW/key
	// block; for a microblock it identifies the epoch's key block, whose
	// LeaderKey signs it.
	KeyAncestor *Node

	// body points at the resident block or, once evicted, at the archive
	// to reload it from.
	body atomic.Pointer[body]
}

// body is a header's block, or the archive holding it when it is evicted.
type body struct {
	block types.Block
	from  BodySource
}

// DetachedNode builds a tree-less node around a block, with the cached
// header fields populated. Strategy and difficulty tests use it to assemble
// synthetic chains; production nodes are always created through NewStore or
// Insert. Callers fill Parent/KeyAncestor/heights themselves.
func DetachedNode(b types.Block) *Node {
	n := &Node{
		hash:   b.Hash(),
		kind:   b.Kind(),
		time:   b.Time(),
		target: BlockTarget(b),
		ord:    -1,
	}
	n.body.Store(&body{block: b})
	return n
}

// Block returns the block body, reloading it from the archive it was
// evicted against. A reload failure panics: bodies are only evicted after
// the archive acknowledged them, so a miss means the durable store was
// externally truncated and the tree can no longer be served.
func (n *Node) Block() types.Block {
	cur := n.body.Load()
	if cur.block != nil {
		return cur.block
	}
	b, err := cur.from.Get(n.hash)
	if err != nil {
		panic(fmt.Sprintf("chain: reloading evicted body %s: %v", n.hash.Short(), err))
	}
	// Keep the first reload; a concurrent one decoded an equal body.
	n.body.CompareAndSwap(cur, &body{block: b})
	return n.Block()
}

// Hash returns the block hash.
func (n *Node) Hash() crypto.Hash { return n.hash }

// Kind returns the block kind without touching the body.
func (n *Node) Kind() types.BlockKind { return n.kind }

// Time returns the block's header timestamp without touching the body.
func (n *Node) Time() int64 { return n.time }

// Target returns the difficulty target the block committed to (zero for
// microblocks) without touching the body.
func (n *Node) Target() crypto.CompactTarget { return n.target }

// IsAncestorOf reports whether n is an ancestor of (or equal to) m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for m != nil && m.Height >= n.Height {
		if m == n {
			return true
		}
		m = m.Parent
	}
	return false
}

// AncestorAtHeight walks up from n to the ancestor at the given height.
func (n *Node) AncestorAtHeight(h uint64) *Node {
	for n != nil && n.Height > h {
		n = n.Parent
	}
	if n == nil || n.Height != h {
		return nil
	}
	return n
}

// BodySource serves archived block bodies back to the tree so resident
// bodies can be evicted. The file-backed chain index (internal/store) and
// the in-memory archive both satisfy it. A shared header reloads through the
// archive that evicted it, from whichever shard asks, so Get must be safe
// for concurrent use.
type BodySource interface {
	Contains(h crypto.Hash) bool
	Get(h crypto.Hash) (types.Block, error)
}

// view is one store's own state for a block it holds, 40 bytes.
type view struct {
	node       *Node // nil where the store does not hold the block
	receivedAt int64
	// undo is the block's UTXO delta while connected (nil off the active
	// chain); feeTotal is the fee the block collected when it connected.
	undo     *utxo.Delta
	feeTotal types.Amount
	// first and next list the store's children of a block in insertion
	// order: the ordinal plus one of the first child and of the next
	// sibling; 0 ends the list.
	first, next int32
}

// Store is the block tree. It indexes every valid block ever seen, main
// chain or not ("Branches and blocks outside the main chain are called
// pruned", §3 — pruned blocks stay in the tree so late reorganizations can
// revive them). Blocks are named by their ordinal in a blockstore.Table,
// which the stores of a simulated fleet share with its headers: per block a
// store keeps only its view, by value in chunks by ordinal (slots.Chunked)
// that the table's growth never copies, and its bit of the invalid set.
type Store struct {
	genesis *Node
	blocks  *blockstore.Table
	// views is indexed by ordinal; a view's node is nil where this store
	// does not hold the block (another store sharing the table named it).
	// count is the number of held blocks. invalid marks the blocks that
	// failed to connect here: fork choice never adopts them or their
	// descendants.
	views   slots.Chunked[view]
	count   int
	invalid slots.Bits
	// bodies, when attached, allows EvictBodies to drop archived block
	// bodies; Node.Block reloads through it on demand.
	bodies BodySource
	// subtree is GHOST's subtree weight per ordinal: the total work in the
	// subtree rooted at the block, itself included, counting only the
	// blocks this store holds. It is nil unless chain.New finds the fork
	// choice needs it: the upkeep is an O(chain-length) walk per inserted
	// PoW block.
	subtree *slots.Chunked[crypto.Work]
}

// NewStore creates a tree rooted at the genesis block, naming its blocks in
// t; a nil t means a private table.
func NewStore(genesis types.Block, t *blockstore.Table) *Store {
	if t == nil {
		t = blockstore.NewTable()
	}
	s := &Store{blocks: t}
	s.genesis = s.intern(genesis, nil)
	s.put(s.genesis, 0)
	return s
}

// intern returns the fleet's header for b, a child of parent (nil for
// genesis), building and publishing it if no store sharing the table has.
// Two stores interning one block at once build equal headers, and both go
// on with the one published first. A header whose body was evicted takes b
// back as its body: the store inserting it holds it already.
func (s *Store) intern(b types.Block, parent *Node) *Node {
	o := s.blocks.Intern(b.Hash())
	n := s.blocks.Share(o, func() any { return header(b, parent, o) }).(*Node)
	if cur := n.body.Load(); cur.block == nil {
		n.body.CompareAndSwap(cur, &body{block: b})
	}
	return n
}

// header builds the header of b, the block named o, a child of parent.
func header(b types.Block, parent *Node, o int32) *Node {
	n := DetachedNode(b)
	n.ord, n.Parent, n.KeyAncestor = o, parent, n
	if parent != nil {
		n.Height, n.KeyHeight, n.Weight = parent.Height+1, parent.KeyHeight+1, parent.Weight
	}
	if n.kind == types.KindMicro { // no work (§4.2): its zero target would count as most
		n.KeyHeight, n.KeyAncestor = parent.KeyHeight, parent.KeyAncestor
	} else {
		n.Weight = n.Weight.Add(crypto.WorkForTarget(n.target))
	}
	return n
}

// put gives n a view in this store.
func (s *Store) put(n *Node, receivedAt int64) {
	*s.views.At(n.ord) = view{node: n, receivedAt: receivedAt}
	s.count++
}

// view returns the store's view of n, which, as for every method taking a
// node, the store must hold.
func (s *Store) view(n *Node) *view { return s.views.Get(n.ord) }

// Genesis returns the root node.
func (s *Store) Genesis() *Node { return s.genesis }

// ReceivedAt returns the local arrival time of n in Unix nanoseconds
// (generation time for self-mined blocks; zero for genesis). It feeds the
// first-seen tie-break and the §6 metrics.
func (s *Store) ReceivedAt(n *Node) int64 { return s.view(n).receivedAt }

// Children yields the children of n this store holds, in the order they
// were inserted.
func (s *Store) Children(n *Node) iter.Seq[*Node] {
	return func(yield func(*Node) bool) {
		for c := s.view(n).first; c != 0; c = s.views.Get(c - 1).next {
			if !yield(s.views.Get(c - 1).node) {
				return
			}
		}
	}
}

// SubtreeWeight returns the total work in the subtree of this store's tree
// rooted at n, n included; GHOST's fork choice reads it (§9). Only a store
// whose state's fork choice needs subtree weights maintains them.
func (s *Store) SubtreeWeight(n *Node) crypto.Work { return *s.subtree.At(n.ord) }

// AttachBodySource wires a durable body archive, enabling EvictBodies.
func (s *Store) AttachBodySource(bs BodySource) { s.bodies = bs }

// EvictBodies drops the resident bodies of nodes at least keepDepth below
// tip whose bodies the attached archive holds, returning how many were
// dropped. A header is shared by the fleet, so a body another store evicted
// already is not dropped again. The genesis body is never evicted (it
// predates the archive: only accepted blocks pass through the persistence
// hook). Eviction is semantically invisible — Node.Block reloads on demand
// — so it is safe to call at any quiescent point; without an attached body
// source it is a no-op.
func (s *Store) EvictBodies(tip *Node, keepDepth uint64) int {
	if s.bodies == nil || tip.Height < keepDepth {
		return 0
	}
	horizon := tip.Height - keepDepth
	evicted := 0
	// The walk runs in ordinal order, which is interning order and so, in a
	// parallel run, scheduling order; nothing here depends on it: every
	// qualifying body is dropped and the count is a sum.
	for o := range int32(s.blocks.Len()) {
		v := s.views.Get(o)
		if v == nil || v.node == nil || v.node.Parent == nil || v.node.Height > horizon {
			continue
		}
		n, cur := v.node, v.node.body.Load()
		if cur.block != nil && s.bodies.Contains(n.hash) && n.body.CompareAndSwap(cur, &body{from: s.bodies}) {
			evicted++
		}
	}
	return evicted
}

// Get returns the node for the hash, if the block is known. An unknown hash
// is not interned, so probes cannot grow the shared table.
func (s *Store) Get(h crypto.Hash) (*Node, bool) {
	o, ok := s.blocks.Lookup(h)
	if v := s.views.Get(o); ok && v != nil && v.node != nil {
		return v.node, true
	}
	return nil, false
}

// Len returns the number of blocks in the tree.
func (s *Store) Len() int { return s.count }

// Insert links a block under its parent, which must be present, taking the
// fleet's header for it. The block must not be present. Returns the node.
func (s *Store) Insert(b types.Block, receivedAt int64) *Node {
	parent, ok := s.Get(b.PrevHash())
	if !ok {
		panic("chain: Insert called without parent present")
	}
	if _, dup := s.Get(b.Hash()); dup {
		panic("chain: Insert called with duplicate block")
	}
	n := s.intern(b, parent)
	s.put(n, receivedAt)
	link := &s.view(parent).first
	for *link != 0 {
		link = &s.views.Get(*link - 1).next
	}
	*link = n.ord + 1
	if s.subtree != nil && n.kind != types.KindMicro {
		// GHOST's subtree weights: n's own work, added to every
		// ancestor's (a microblock has none to add).
		work := crypto.WorkForTarget(n.target)
		*s.subtree.At(n.ord) = work
		for a := parent; a != nil; a = a.Parent {
			w := s.subtree.At(a.ord)
			*w = w.Add(work)
		}
	}
	return n
}

// CommonAncestor returns the deepest node on both a's and b's chains.
func CommonAncestor(a, b *Node) *Node {
	for a.Height > b.Height {
		a = a.Parent
	}
	for b.Height > a.Height {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// appendPath appends the blocks strictly after ancestor up to and including
// tip to dst, oldest first. ancestor must be an ancestor of tip.
func appendPath(dst []*Node, ancestor, tip *Node) []*Node {
	start := len(dst)
	dst = slices.Grow(dst, int(tip.Height-ancestor.Height))
	for n := tip; n != ancestor; n = n.Parent {
		dst = append(dst, n)
	}
	slices.Reverse(dst[start:])
	return dst
}
