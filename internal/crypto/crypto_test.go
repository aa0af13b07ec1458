package crypto

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashBytesKnownVector(t *testing.T) {
	// Double SHA-256 of the empty string.
	got := HashBytes(nil).String()
	want := "56944c5d3f98413ef45cf54545538103cc9f298e0575820ad3591376e2e0f65d"
	if got != want {
		t.Errorf("HashBytes(nil) = %s, want %s", got, want)
	}
}

func TestHashStringParseRoundTrip(t *testing.T) {
	f := func(raw [32]byte) bool {
		h := Hash(raw)
		parsed, err := ParseHash(h.String())
		return err == nil && parsed == h && h.Short() == h.String()[:8]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseHashRejectsBadInput(t *testing.T) {
	if _, err := ParseHash("abc"); err == nil {
		t.Error("accepted short hex")
	}
	if _, err := ParseHash(string(make([]byte, 64))); err == nil {
		t.Error("accepted non-hex input")
	}
}

func TestCompactTargetRoundTrip(t *testing.T) {
	// Bitcoin's historical genesis target.
	c := CompactTarget(0x1d00ffff)
	big := c.Big()
	back := CompactFromBig(big)
	if back != c {
		t.Errorf("round trip %#x -> %#x", uint32(c), uint32(back))
	}
}

func TestCompactFromBigRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		// Random targets with random bit lengths up to 255 bits.
		bits := 8 + rng.Intn(247)
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(bigOne, uint(bits)))
		if v.Sign() == 0 {
			continue
		}
		c := CompactFromBig(v)
		// Compact form keeps only 3 mantissa bytes, so round-tripping
		// through Big must be a fixed point.
		again := CompactFromBig(c.Big())
		if again != c {
			t.Fatalf("compact not a fixed point: %#x -> %#x (v=%s)", uint32(c), uint32(again), v)
		}
	}
}

func TestCheckProofOfWork(t *testing.T) {
	// The all-zero hash is below any positive target.
	if !CheckProofOfWork(ZeroHash, CompactTarget(0x1d00ffff)) {
		t.Error("zero hash rejected")
	}
	// The all-ones hash is above any realistic target.
	var ones Hash
	for i := range ones {
		ones[i] = 0xff
	}
	if CheckProofOfWork(ones, CompactTarget(0x1d00ffff)) {
		t.Error("max hash accepted")
	}
	// Everything passes the easiest target.
	if !CheckProofOfWork(ones, EasiestTarget) {
		t.Error("max hash rejected by easiest target")
	}
}

func TestWorkForTargetMonotonic(t *testing.T) {
	hard := CompactTarget(0x1b00ffff) // small target, hard
	easy := CompactTarget(0x1d00ffff) // large target, easy
	if WorkForTarget(hard).Cmp(WorkForTarget(easy)) <= 0 {
		t.Error("harder target should represent more work")
	}
}

func TestRetargetDirection(t *testing.T) {
	base := CompactTarget(0x1d00ffff)
	// Blocks arriving too fast: target must shrink (difficulty up).
	faster := Retarget(base, 300, 600)
	if faster.Big().Cmp(base.Big()) >= 0 {
		t.Error("retarget did not raise difficulty for fast blocks")
	}
	// Blocks arriving too slow: target must grow (difficulty down).
	slower := Retarget(base, 1200, 600)
	if slower.Big().Cmp(base.Big()) <= 0 {
		t.Error("retarget did not lower difficulty for slow blocks")
	}
	// Clamped at 4x.
	clamped := Retarget(base, 600*100, 600)
	ratio := new(big.Float).Quo(
		new(big.Float).SetInt(clamped.Big()),
		new(big.Float).SetInt(base.Big()))
	r, _ := ratio.Float64()
	if r > 4.05 {
		t.Errorf("retarget ratio %v exceeds 4x clamp", r)
	}
	// Degenerate inputs leave the target unchanged.
	if Retarget(base, 0, 600) != base || Retarget(base, 600, 0) != base {
		t.Error("degenerate retarget changed target")
	}
}

func TestMerkleRootBasics(t *testing.T) {
	if !MerkleRoot(nil).IsZero() {
		t.Error("empty tree root should be zero")
	}
	leaf := HashBytes([]byte("a"))
	if MerkleRoot([]Hash{leaf}) != leaf {
		t.Error("single-leaf root should equal the leaf")
	}
}

func TestMerkleRootSensitivity(t *testing.T) {
	leaves := make([]Hash, 7)
	for i := range leaves {
		leaves[i] = HashBytes([]byte{byte(i)})
	}
	root := MerkleRoot(leaves)
	for i := range leaves {
		mutated := make([]Hash, len(leaves))
		copy(mutated, leaves)
		mutated[i] = HashBytes([]byte{0xff, byte(i)})
		if MerkleRoot(mutated) == root {
			t.Errorf("mutating leaf %d did not change the root", i)
		}
	}
}

func TestMerkleProofAllPositions(t *testing.T) {
	for n := 1; n <= 12; n++ {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = HashBytes([]byte{byte(n), byte(i)})
		}
		root := MerkleRoot(leaves)
		for i := 0; i < n; i++ {
			proof := BuildMerkleProof(leaves, i)
			if proof == nil {
				t.Fatalf("n=%d: nil proof for index %d", n, i)
			}
			if !proof.Verify(leaves[i], root) {
				t.Errorf("n=%d: proof for leaf %d failed", n, i)
			}
			// A proof must not verify for a different leaf.
			wrong := HashBytes([]byte{0xaa, byte(i)})
			if proof.Verify(wrong, root) {
				t.Errorf("n=%d: proof verified for wrong leaf %d", n, i)
			}
		}
	}
}

func TestMerkleProofOutOfRange(t *testing.T) {
	leaves := []Hash{HashBytes([]byte("x"))}
	if BuildMerkleProof(leaves, -1) != nil || BuildMerkleProof(leaves, 1) != nil {
		t.Error("out-of-range proof not rejected")
	}
	if BuildMerkleProof(nil, 0) != nil {
		t.Error("empty-tree proof not rejected")
	}
}

func TestKeySignVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	priv, err := GenerateKey(rng)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("microblock header")
	sig := priv.Sign(msg)
	pub := priv.Public()
	if !pub.Verify(msg, sig) {
		t.Error("valid signature rejected")
	}
	msg[0] ^= 1
	if pub.Verify(msg, sig) {
		t.Error("signature verified for altered message")
	}
	other, err := GenerateKey(rng)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg[0] ^= 1
	if other.Public().Verify(msg, sig) {
		t.Error("signature verified under wrong key")
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	a, err := GenerateKey(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Public() != b.Public() {
		t.Error("same seed produced different keys")
	}
}

func TestAddress(t *testing.T) {
	priv, _ := GenerateKey(rand.New(rand.NewSource(9)))
	addr := priv.Public().Addr()
	if addr.IsZero() {
		t.Error("address of real key is zero")
	}
	var zero Address
	if !zero.IsZero() {
		t.Error("zero address not reported zero")
	}
	if len(addr.String()) != 8 {
		t.Errorf("address short form = %q", addr.String())
	}
}
