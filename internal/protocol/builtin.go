package protocol

import (
	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/core"
	"bitcoinng/internal/ghost"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

func init() {
	MustRegister(Bitcoin, Registration{New: newBitcoin, Payload: types.KindPow})
	MustRegister(GHOST, Registration{New: newGHOST, Payload: types.KindPow})
	MustRegister(BitcoinNG, Registration{New: newBitcoinNG, Payload: types.KindMicro})
}

func bitcoinConfig(spec Spec) bitcoin.Config {
	return bitcoin.Config{
		Params:          spec.Params,
		Key:             spec.Key,
		Genesis:         spec.Genesis,
		Recorder:        spec.Recorder,
		SimulatedMining: spec.SimulatedMining,
		ConnectCache:    spec.ConnectCache,
		Blocks:          spec.Blocks,
		UTXO:            spec.UTXO,
	}
}

// bitcoinClient adapts *bitcoin.Node (which GHOST shares) to Client.
type bitcoinClient struct{ *bitcoin.Node }

func (c bitcoinClient) Base() *node.Base       { return c.Node.Base }
func (c bitcoinClient) MineBlock() types.Block { return c.Node.MineBlock() }

func newBitcoin(env node.Env, spec Spec) (Client, error) {
	n, err := bitcoin.New(env, bitcoinConfig(spec))
	if err != nil {
		return nil, err
	}
	return bitcoinClient{n}, nil
}

func newGHOST(env node.Env, spec Spec) (Client, error) {
	n, err := ghost.New(env, bitcoinConfig(spec))
	if err != nil {
		return nil, err
	}
	return bitcoinClient{n}, nil
}

// ngClient adapts *core.Node to Client. IsLeader, MicroblocksMined,
// Equivocate, and AssembleKeyBlock promote from the embedded node, so the
// adapter satisfies every optional capability.
type ngClient struct{ *core.Node }

func (c ngClient) Base() *node.Base       { return c.Node.Base }
func (c ngClient) MineBlock() types.Block { return c.Node.MineKeyBlock() }
func (c ngClient) FraudsDetected() int    { return len(c.Node.KnownFrauds()) }

func newBitcoinNG(env node.Env, spec Spec) (Client, error) {
	n, err := core.New(env, core.Config{
		Params:             spec.Params,
		Key:                spec.Key,
		Genesis:            spec.Genesis,
		Recorder:           spec.Recorder,
		SimulatedMining:    spec.SimulatedMining,
		CensorTransactions: spec.CensorTransactions,
		ConnectCache:       spec.ConnectCache,
		Blocks:             spec.Blocks,
		Strategy:           spec.Strategy,
		UTXO:               spec.UTXO,
	})
	if err != nil {
		return nil, err
	}
	return ngClient{n}, nil
}
