package types

import (
	"bitcoinng/internal/crypto"
)

// GenesisSpec configures deterministic genesis construction. Every node in
// an experiment builds the identical genesis block from the same spec ("The
// first block, dubbed the genesis block, is defined as part of the
// protocol", §3).
type GenesisSpec struct {
	// TimeNanos is the genesis timestamp; simulation time starts here.
	TimeNanos int64
	// Target is the initial difficulty target.
	Target crypto.CompactTarget
	// Payouts pre-funds addresses so experiment workloads have outputs to
	// spend (the paper pre-loads the chain with artificial transactions,
	// §7 "No Transaction Propagation").
	Payouts []TxOutput
}

// GenesisBlock builds the canonical genesis block for the spec. It is a
// simulated-PoW block so it needs no mining; its coinbase mints the
// pre-funded outputs. Genesis is a PowBlock for every protocol — for
// Bitcoin-NG it acts as the zeroth key block with no microblock rights
// (no leader key), so the chain properly starts with a real key block.
func GenesisBlock(spec GenesisSpec) *PowBlock {
	coinbase := &Transaction{
		Kind:    TxCoinbase,
		Outputs: spec.Payouts,
		Height:  0,
	}
	if len(coinbase.Outputs) == 0 {
		// A coinbase must pay someone; burn to the zero address.
		coinbase.Outputs = []TxOutput{{Value: 0, To: crypto.Address{}}}
	}
	txs := []*Transaction{coinbase}
	return &PowBlock{
		Header: PowHeader{
			Prev:       crypto.ZeroHash,
			MerkleRoot: TxRoot(txs),
			TimeNanos:  spec.TimeNanos,
			Target:     spec.Target,
			Nonce:      0,
		},
		Txs:          txs,
		SimulatedPoW: true,
	}
}
