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
	"math/big"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// Node is a block in the tree together with its chain-cumulative metadata.
// The block body is accessed through Block(): everything fork choice,
// difficulty, and coinbase validation read per-node (hash, kind, time,
// target, weight, fees) is cached in fixed-size fields, so the body itself
// can be evicted once archived in a durable body store and transparently
// reloaded on demand — the tree's resident size then no longer grows with
// transaction volume.
type Node struct {
	// block is the body; nil when evicted (Block() reloads it from the
	// owning store's body archive).
	block types.Block
	store *Store

	// Cached header-derived fields, valid for the node's whole lifetime.
	hash   crypto.Hash
	kind   types.BlockKind
	time   int64
	target crypto.CompactTarget

	Parent *Node // nil for genesis

	// Height counts all blocks from genesis, microblocks included.
	Height uint64
	// KeyHeight counts only proof-of-work blocks (Bitcoin blocks or
	// Bitcoin-NG key blocks); it drives coinbase maturity and difficulty
	// retargeting.
	KeyHeight uint64
	// Weight is the cumulative work from genesis. Microblocks contribute
	// zero (§4.2: microblocks do not affect the weight of the chain).
	Weight *big.Int
	// KeyAncestor is the nearest ancestor (or self) that is a PoW/key
	// block; for a microblock it identifies the epoch's key block, whose
	// LeaderKey signs it.
	KeyAncestor *Node
	// ReceivedAt is the local arrival time in Unix nanoseconds (generation
	// time for self-mined blocks). It feeds the first-seen tie-break rule
	// and the §6 metrics.
	ReceivedAt int64
	// SubtreeWeight is the total work in the subtree rooted at this node,
	// itself included; GHOST's fork choice reads it (§9). It is only
	// maintained when the store's fork choice declares it needs subtree
	// weights (Store.EnableSubtreeWeights); otherwise it holds just the
	// node's own work.
	SubtreeWeight *big.Int
	// Invalid marks blocks that failed contextual validation on connect;
	// fork choice never adopts an invalid node or its descendants.
	Invalid bool

	children []*Node

	// undo is the block's recorded UTXO delta while connected (nil when
	// not on the active chain); feeTotal is the total fee the block
	// collected when it last connected (stable per block). Kept on the
	// node rather than in side maps: every connect touches them, and the
	// per-State maps they replaced were a measurable allocation source.
	undo     *utxo.Delta
	feeTotal types.Amount
}

// newNode builds a node with its header-derived caches populated.
func newNode(s *Store, b types.Block) *Node {
	return &Node{
		block:  b,
		store:  s,
		hash:   b.Hash(),
		kind:   b.Kind(),
		time:   b.Time(),
		target: BlockTarget(b),
	}
}

// DetachedNode builds a tree-less node around a block, with the cached
// header fields populated. Strategy and difficulty tests use it to assemble
// synthetic chains; production nodes are always created through NewStore or
// Insert. Callers fill Parent/KeyAncestor/heights themselves.
func DetachedNode(b types.Block) *Node { return newNode(nil, b) }

// Block returns the block body, reloading it from the attached body store
// if it was evicted. A reload failure panics: bodies are only evicted after
// the archive acknowledged them, so a miss means the durable store was
// externally truncated and the tree can no longer be served.
func (n *Node) Block() types.Block {
	if n.block == nil {
		b, err := n.store.bodies.Get(n.hash)
		if err != nil {
			panic(fmt.Sprintf("chain: reloading evicted body %s: %v", n.hash.Short(), err))
		}
		n.block = b
	}
	return n.block
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

// Children returns the node's children; callers must not mutate the slice.
func (n *Node) Children() []*Node { return n.children }

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
// the in-memory archive both satisfy it.
type BodySource interface {
	Contains(h crypto.Hash) bool
	Get(h crypto.Hash) (types.Block, error)
}

// Store is the block tree. It indexes every valid block ever seen, main
// chain or not ("Branches and blocks outside the main chain are called
// pruned", §3 — pruned blocks stay in the tree so late reorganizations can
// revive them). Blocks are named by their ordinal in a blockstore.Table,
// which the stores of a simulated fleet share: the store itself keeps one
// slot per ordinal, not a map of its own.
type Store struct {
	genesis *Node
	blocks  *blockstore.Table
	// nodes is indexed by ordinal; nil where this store does not hold the
	// block (another store sharing the table named it). count is the
	// number of non-nil slots.
	nodes []*Node
	count int
	// bodies, when attached, allows EvictBodies to drop archived block
	// bodies from the tree; Node.Block reloads through it on demand.
	bodies BodySource
	// trackSubtree enables SubtreeWeight maintenance, which costs an
	// O(chain-length) big.Int walk per inserted PoW block. Maintenance is
	// on unless the fork choice declares it unneeded (chain.SubtreeWeighted
	// — the built-in heaviest-chain rule opts out); when off, SubtreeWeight
	// holds just the node's own work.
	trackSubtree bool
}

// NewStore creates a tree rooted at the genesis block, naming its blocks in
// t; a nil t means a private table.
func NewStore(genesis types.Block, t *blockstore.Table) *Store {
	if t == nil {
		t = blockstore.NewTable()
	}
	s := &Store{blocks: t}
	g := newNode(s, genesis)
	// The genesis work is shared by every store built on the block and is
	// read-only; EnableSubtreeWeights gives the root its own copy.
	g.Weight = genesis.Work()
	g.SubtreeWeight = genesis.Work()
	g.KeyAncestor = g
	s.genesis = g
	s.put(g)
	return s
}

// put fills n's slot, sizing the slot slice up to the table's length at
// once: blocks other stores named already are likely to arrive here next.
func (s *Store) put(n *Node) {
	o := s.blocks.Intern(n.hash)
	if int(o) >= len(s.nodes) {
		s.nodes = append(s.nodes, make([]*Node, s.blocks.Len()-len(s.nodes))...)
	}
	s.nodes[o] = n
	s.count++
}

// Genesis returns the root node.
func (s *Store) Genesis() *Node { return s.genesis }

// AttachBodySource wires a durable body archive, enabling EvictBodies.
func (s *Store) AttachBodySource(bs BodySource) { s.bodies = bs }

// EvictBodies drops the resident bodies of nodes at least keepDepth below
// tip whose bodies the attached archive holds, returning how many were
// dropped. The genesis body is never evicted (it predates the archive: only
// accepted blocks pass through the persistence hook). Eviction is
// semantically invisible — Node.Block reloads on demand — so it is safe to
// call at any quiescent point; without an attached body source it is a
// no-op.
func (s *Store) EvictBodies(tip *Node, keepDepth uint64) int {
	if s.bodies == nil || tip.Height < keepDepth {
		return 0
	}
	horizon := tip.Height - keepDepth
	evicted := 0
	// The walk runs in ordinal order, which is interning order and so, in a
	// parallel run, scheduling order; nothing here depends on it: every
	// qualifying body is dropped and the count is a sum.
	for _, n := range s.nodes {
		if n == nil || n.block == nil || n.Parent == nil || n.Height > horizon {
			continue
		}
		if !s.bodies.Contains(n.hash) {
			continue
		}
		n.block = nil
		evicted++
	}
	return evicted
}

// EnableSubtreeWeights turns on cumulative subtree-weight maintenance. It
// must be called before any Insert (chain.New does, when the fork choice
// needs it).
func (s *Store) EnableSubtreeWeights() {
	if s.count > 1 {
		panic("chain: EnableSubtreeWeights after blocks were inserted")
	}
	s.trackSubtree = true
	// Own big.Int: descendants add their work into the root's.
	s.genesis.SubtreeWeight = new(big.Int).Set(s.genesis.SubtreeWeight)
}

// Get returns the node for the hash, if the block is known. An unknown hash
// is not interned, so probes cannot grow the shared table.
func (s *Store) Get(h crypto.Hash) (*Node, bool) {
	o, ok := s.blocks.Lookup(h)
	if !ok || int(o) >= len(s.nodes) || s.nodes[o] == nil {
		return nil, false
	}
	return s.nodes[o], true
}

// Len returns the number of blocks in the tree.
func (s *Store) Len() int { return s.count }

// Insert links a block under its parent and computes cumulative metadata.
// The parent must already be present and the block must not be. Returns the
// new node.
func (s *Store) Insert(b types.Block, receivedAt int64) *Node {
	parent, ok := s.Get(b.PrevHash())
	if !ok {
		panic("chain: Insert called without parent present")
	}
	if _, dup := s.Get(b.Hash()); dup {
		panic("chain: Insert called with duplicate block")
	}
	work := b.Work()
	n := newNode(s, b)
	n.Parent = parent
	n.Height = parent.Height + 1
	n.KeyHeight = parent.KeyHeight
	n.ReceivedAt = receivedAt
	if work.Sign() == 0 {
		// Zero-work blocks (microblocks) share the parent's cumulative
		// weight; Weight values are read-only after creation.
		n.Weight = parent.Weight
	} else {
		n.Weight = new(big.Int).Add(parent.Weight, work)
	}
	if s.trackSubtree {
		// Own big.Int: descendants mutate it during propagation.
		n.SubtreeWeight = new(big.Int).Set(work)
	} else {
		// Untracked stores never mutate SubtreeWeight, so aliasing the
		// (possibly shared) work value is safe.
		n.SubtreeWeight = work
	}
	if n.kind == types.KindMicro {
		n.KeyAncestor = parent.KeyAncestor
	} else {
		n.KeyHeight++
		n.KeyAncestor = n
	}
	parent.children = append(parent.children, n)
	s.put(n)
	// Propagate subtree weight to ancestors for GHOST.
	if s.trackSubtree && work.Sign() > 0 {
		for a := parent; a != nil; a = a.Parent {
			a.SubtreeWeight.Add(a.SubtreeWeight, work)
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

// PathBetween returns the blocks strictly after ancestor up to and including
// tip, oldest first. ancestor must be an ancestor of tip.
func PathBetween(ancestor, tip *Node) []*Node {
	if ancestor == tip {
		return nil
	}
	path := make([]*Node, 0, tip.Height-ancestor.Height)
	for n := tip; n != ancestor; n = n.Parent {
		path = append(path, n)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// EpochFees sums the recorded fees of the microblocks in the epoch that ends
// just above keyParent's chain: walking up from `from` (inclusive) until the
// nearest PoW/key block (exclusive). Used by Bitcoin-NG coinbase validation
// (§4.4) — the fees of the previous leader's microblocks fund the 40/60
// split in the next key block's coinbase.
func EpochFees(from *Node) types.Amount {
	var total types.Amount
	for n := from; n != nil && n.Kind() == types.KindMicro; n = n.Parent {
		total += n.feeTotal
	}
	return total
}
