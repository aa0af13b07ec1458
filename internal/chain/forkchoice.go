package chain

import "math/rand"

// ForkChoice selects the preferred tip after a block is added to the tree.
type ForkChoice interface {
	// Best returns the tip to adopt given the current tip and the newly
	// inserted node. Implementations must be deterministic given their
	// random source.
	Best(s *Store, current, added *Node) *Node
}

// SubtreeWeighted lets a fork choice declare whether it reads
// Store.SubtreeWeight; the store pays the per-insert ancestor walk that
// maintains subtree weights only when needed. Fork choices that do not
// implement the interface get the weights maintained (the safe default for
// custom rules); built-in rules that only compare cumulative chain weight
// opt out and skip the cost entirely.
type SubtreeWeighted interface {
	NeedsSubtreeWeight() bool
}

// HeaviestChain is the Bitcoin/Bitcoin-NG rule (§3, §4.1): adopt the chain
// representing the most aggregate work, breaking ties either uniformly at
// random (the paper's recommendation, after [21]) or by keeping the
// first-seen branch (the operational client's behaviour).
type HeaviestChain struct {
	// RandomTieBreak selects the tie rule.
	RandomTieBreak bool
	// Rand supplies tie-break coin flips; required when RandomTieBreak.
	Rand *rand.Rand
}

// NeedsSubtreeWeight implements SubtreeWeighted: heaviest-chain only
// compares cumulative weight, so the store can skip subtree maintenance.
func (h *HeaviestChain) NeedsSubtreeWeight() bool { return false }

// Best implements ForkChoice.
func (h *HeaviestChain) Best(s *Store, current, added *Node) *Node {
	switch added.Weight.Cmp(current.Weight) {
	case 1:
		return added
	case -1:
		return current
	}
	// Equal weight. A descendant of the current tip extends it without
	// adding work — Bitcoin-NG microblocks — and is always adopted.
	if current.IsAncestorOf(added) {
		return added
	}
	if added.IsAncestorOf(current) {
		return current
	}
	// A genuine equal-weight fork.
	if h.RandomTieBreak && h.Rand.Intn(2) == 0 {
		return added
	}
	return current
}

// GHOST is the heaviest-subtree rule of Sompolinsky et al. evaluated in §9:
// from genesis, repeatedly descend into the child whose subtree carries the
// most work, until reaching a leaf. Work not on the main chain still counts
// at the branch point.
type GHOST struct {
	// RandomTieBreak breaks equal-subtree ties randomly; otherwise the
	// earliest-received child wins.
	RandomTieBreak bool
	Rand           *rand.Rand
}

// NeedsSubtreeWeight implements SubtreeWeighted: GHOST's descent compares
// subtree weights, so the store must maintain them.
func (g *GHOST) NeedsSubtreeWeight() bool { return true }

// Best implements ForkChoice. The added node is unused: GHOST recomputes the
// greedy descent from the root, since a block anywhere in the tree can flip
// a branch decision.
func (g *GHOST) Best(s *Store, current, added *Node) *Node {
	n := s.Genesis()
	for {
		var best *Node
		for c := range s.Children(n) {
			if s.invalid.Has(c.ord) {
				continue
			}
			if best == nil {
				best = c
				continue
			}
			switch s.SubtreeWeight(c).Cmp(s.SubtreeWeight(best)) {
			case 1:
				best = c
			case 0:
				if g.RandomTieBreak {
					if g.Rand.Intn(2) == 0 {
						best = c
					}
				} else if s.ReceivedAt(c) < s.ReceivedAt(best) {
					best = c
				}
			}
		}
		if best == nil {
			return n
		}
		n = best
	}
}
