package chain_test

import (
	"errors"
	"testing"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
)

// powProtocol is one protocol whose blocks carry proof of work, as the
// header-rule table drives it: its rules, and how it builds a block on a
// parent.
type powProtocol struct {
	name  string
	rules func(allowSimulated bool) chain.Protocol
	block func(key *crypto.PrivateKey, pow types.PowHeader, txs []*types.Transaction, simulated bool) types.PowCarrier
}

var powProtocols = []powProtocol{
	{
		name:  "bitcoin",
		rules: func(allow bool) chain.Protocol { return bitcoin.Rules{AllowSimulatedPoW: allow} },
		block: func(_ *crypto.PrivateKey, pow types.PowHeader, txs []*types.Transaction, simulated bool) types.PowCarrier {
			b := &types.PowBlock{Header: pow, Txs: txs, SimulatedPoW: simulated}
			mine(&b.Header, &b.Header)
			return b
		},
	},
	{
		name:  "bitcoin-ng",
		rules: func(allow bool) chain.Protocol { return core.Rules{AllowSimulatedPoW: allow} },
		block: func(key *crypto.PrivateKey, pow types.PowHeader, txs []*types.Transaction, simulated bool) types.PowCarrier {
			b := &types.KeyBlock{Header: types.KeyBlockHeader{PowHeader: pow, LeaderKey: key.Public()}, Txs: txs, SimulatedPoW: simulated}
			mine(&b.Header, &b.Header.PowHeader)
			return b
		},
	},
}

// mine advances the nonce until the header's hash meets its target.
func mine(h interface{ Hash() crypto.Hash }, pow *types.PowHeader) {
	for !crypto.CheckProofOfWork(h.Hash(), pow.Target) {
		pow.Nonce++
	}
}

// harderTarget is a target half the hashes meet: cheap to mine, and not the
// schedule's EasiestTarget.
const harderTarget crypto.CompactTarget = 0x207fffff

// headerChain is a live chain of five proof-of-work blocks, one a second,
// over a genesis at time 0, judged at now = 10 s.
type headerChain struct {
	p    powProtocol
	st   *chain.State
	key  *crypto.PrivateKey
	now  int64
	tip  *chain.Node
	live chain.Protocol
	// payee receives the coinbase: the key for the chain's own blocks,
	// another address for the blocks under test, so that none of their
	// coinbases is a chain block's.
	payee crypto.Address
}

func newHeaderChain(t *testing.T, p powProtocol) *headerChain {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(41, 1))
	if err != nil {
		t.Fatal(err)
	}
	params := types.DefaultParams()
	params.RandomTieBreak = false
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	live := p.rules(false)
	st, err := chain.New(genesis, params, live, &chain.HeaviestChain{})
	if err != nil {
		t.Fatal(err)
	}
	c := &headerChain{p: p, st: st, key: key, now: 10e9, live: live, payee: key.Public().Addr()}
	for i := int64(1); i <= 5; i++ {
		c.tip = st.Tip()
		b := c.block(i*1e9, crypto.EasiestTarget, uint64(i), false)
		if _, err := st.AddBlock(b, c.now); err != nil {
			t.Fatalf("%s: block %d: %v", p.name, i, err)
		}
	}
	c.tip, c.payee = st.Tip(), crypto.Address{1}
	if c.tip.KeyHeight != 5 {
		t.Fatalf("%s: key height %d, want 5", p.name, c.tip.KeyHeight)
	}
	return c
}

// block builds a block on c.tip timed at ts, committing to target,
// whose coinbase claims key height cbHeight.
func (c *headerChain) block(ts int64, target crypto.CompactTarget, cbHeight uint64, simulated bool) types.PowCarrier {
	txs := []*types.Transaction{{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 1, To: c.payee}},
		Height:  cbHeight,
	}}
	pow := types.PowHeader{Prev: c.tip.Hash(), MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)), TimeNanos: ts, Target: target}
	return c.p.block(c.key, pow, txs, simulated)
}

// TestPowHeaderRulesAtTheirBoundaries drives both protocols' CheckBlock and
// ConnectCheck through each header rule they share, on each side of its
// boundary: the future skew, the median time past (real proof of work at the
// easiest target), the retarget schedule, the simulated-PoW gate and the
// coinbase height.
func TestPowHeaderRulesAtTheirBoundaries(t *testing.T) {
	const next = 6 // the key height of a block on the five-block chain
	skew := int64(chain.MaxFutureSkew)
	for _, p := range powProtocols {
		c := newHeaderChain(t, p)
		mtp := chain.MedianTimePast(c.tip, chain.MedianTimeWindow)
		if mtp != 3e9 {
			t.Fatalf("%s: median time past %d, want 3e9", p.name, mtp)
		}
		if want := chain.NextTarget(c.tip, c.st.Params()); want != crypto.EasiestTarget {
			t.Fatalf("%s: scheduled target %#x, want the easiest", p.name, uint32(want))
		}
		checks := []struct {
			name  string
			block types.PowCarrier
			rules chain.Protocol
			want  error
		}{
			{"timed at now+MaxFutureSkew", c.block(c.now+skew, crypto.EasiestTarget, next, false), c.live, nil},
			{"timed 1ns past now+MaxFutureSkew", c.block(c.now+skew+1, crypto.EasiestTarget, next, false), c.live, chain.ErrTimeTooNew},
			{"timed at median time past", c.block(mtp, crypto.EasiestTarget, next, false), c.live, chain.ErrTimeTooOld},
			{"timed 1ns past median time past", c.block(mtp+1, crypto.EasiestTarget, next, false), c.live, nil},
			{"off the target schedule", c.block(c.now, harderTarget, next, false), c.live, chain.ErrWrongTarget},
			{"simulated, under live rules", c.block(c.now, crypto.EasiestTarget, next, true), c.live, chain.ErrSimulatedPoW},
			{"simulated, under simulated rules", c.block(c.now, crypto.EasiestTarget, next, true), p.rules(true), nil},
		}
		for _, tc := range checks {
			if err := tc.rules.CheckBlock(c.st, c.tip, tc.block, c.now); !errors.Is(err, tc.want) {
				t.Errorf("%s, block %s: CheckBlock = %v, want %v", p.name, tc.name, err, tc.want)
			}
		}
		// ConnectCheck runs when a block that passed CheckBlock connects.
		for _, tc := range []struct {
			height uint64
			want   error
		}{{next - 1, chain.ErrBadCoinbaseHt}, {next + 1, chain.ErrBadCoinbaseHt}, {next, nil}} {
			_, err := c.st.AddBlock(c.block(c.now, crypto.EasiestTarget, tc.height, false), c.now)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s, coinbase height %d at key height %d: AddBlock = %v, want %v", p.name, tc.height, next, err, tc.want)
			}
		}
	}
}

// TestSimulatedBlocksTakeTimeAndTargetFromTheScheduler: a simulated block
// may be timed before the median time past and commit to any target.
func TestSimulatedBlocksTakeTimeAndTargetFromTheScheduler(t *testing.T) {
	for _, p := range powProtocols {
		c := newHeaderChain(t, p)
		b := c.block(0, harderTarget, 6, true)
		if err := p.rules(true).CheckBlock(c.st, c.tip, b, c.now); err != nil {
			t.Errorf("%s: simulated block before the median, off the schedule: %v", p.name, err)
		}
	}
}
