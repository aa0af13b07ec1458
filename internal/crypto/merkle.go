package crypto

// MerkleRoot computes the Merkle root of a list of leaf hashes using the
// Bitcoin construction: pairs of nodes are concatenated and double-SHA256
// hashed; an odd node at any level is paired with itself. An empty list
// yields the zero hash (only the degenerate empty-block case).
//
// The fold runs in place and allocates nothing: each level overwrites the
// front of leaves, so the caller must own the slice and not need it after —
// pass a fresh list such as types.TxIDs' result, or a copy.
func MerkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return ZeroHash
	}
	for n := len(leaves); n > 1; n = (n + 1) / 2 {
		// Node i of the next level reads nodes 2i and 2i+1 of this one, both
		// at or after i, so writing it over node i loses nothing still needed.
		for i := 0; 2*i < n; i++ {
			right := leaves[2*i]
			if 2*i+1 < n {
				right = leaves[2*i+1]
			}
			leaves[i] = hashPair(leaves[2*i], right)
		}
	}
	return leaves[0]
}

// MerkleProof is the authentication path for one leaf: the sibling hash at
// each level plus, per level, whether the sibling sits to the left.
type MerkleProof struct {
	Siblings []Hash
	// Left[i] reports whether Siblings[i] is the left operand when
	// recomputing level i+1.
	Left []bool
}

// BuildMerkleProof returns the proof for leaves[index]. It returns nil when
// index is out of range or the tree is empty.
func BuildMerkleProof(leaves []Hash, index int) *MerkleProof {
	if index < 0 || index >= len(leaves) || len(leaves) == 0 {
		return nil
	}
	proof := &MerkleProof{}
	level := make([]Hash, len(leaves))
	copy(level, leaves)
	pos := index
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		sib := pos ^ 1
		proof.Siblings = append(proof.Siblings, level[sib])
		proof.Left = append(proof.Left, sib < pos)
		next := level[:len(level)/2]
		for i := range next {
			next[i] = hashPair(level[2*i], level[2*i+1])
		}
		level = next
		pos /= 2
	}
	return proof
}

// Verify recomputes the root from leaf and the proof and compares it to
// root.
func (p *MerkleProof) Verify(leaf, root Hash) bool {
	h := leaf
	for i, sib := range p.Siblings {
		if i < len(p.Left) && p.Left[i] {
			h = hashPair(sib, h)
		} else {
			h = hashPair(h, sib)
		}
	}
	return h == root
}

func hashPair(a, b Hash) Hash {
	var buf [64]byte
	copy(buf[:32], a[:])
	copy(buf[32:], b[:])
	return HashBytes(buf[:])
}
