package node

import (
	"fmt"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// Config is everything a client constructor needs, for every protocol. A
// client that cannot honour a field it is given refuses it at build.
type Config struct {
	// Params are the consensus parameters under test (block size cap,
	// subsidy, maturity, retarget schedule, tie-break rule, and under
	// Bitcoin-NG the microblock rate).
	Params types.Params
	// Key signs the node's blocks (microblocks while leading, under
	// Bitcoin-NG, whose key blocks embed its public key, §4.1) and
	// receives its rewards.
	Key *crypto.PrivateKey
	// Genesis is the shared genesis block.
	Genesis *types.PowBlock
	// Recorder receives metric events; nil discards them.
	Recorder Recorder
	// SimulatedMining marks blocks as scheduler-generated and accepts such
	// blocks from peers (the experiments' regtest mode); live nodes leave
	// it false and grind real nonces.
	SimulatedMining bool
	// CensorTransactions makes a Bitcoin-NG node, while leading, publish
	// empty microblocks — the §5.2 "Censorship Resistance" DoS behaviour
	// whose influence ends with the next honest key block.
	CensorTransactions bool
	// ConnectCache shares memoized connect-stage verdicts (UTXO deltas,
	// fees) between every node whose validation rules fingerprint matches,
	// so the 2nd..Nth node connecting a block replays the first node's
	// work. nil validates everything locally.
	ConnectCache *validate.Cache
	// Blocks names every block once for a whole simulated fleet: the
	// harness passes its store factory's table (chain.WithBlockTable), so
	// each node's block tree keeps one slot per block instead of a map of
	// its own. nil keeps a private table (live nodes).
	Blocks *blockstore.Table
	// Strategy is a Bitcoin-NG node's mining strategy (internal/strategy):
	// which block its key blocks extend, publish-vs-withhold decisions,
	// and the coinbase fee split. nil runs honest. Strategies bend
	// production choices only — validation of received blocks is
	// unaffected, so the connect cache stays shareable across strategies.
	Strategy strategy.Strategy
}

// New assembles the protocol-independent core of a client from cfg: its
// chain state under the protocol's rules and fork choice (nil selects the
// heaviest chain), over cfg's connect cache and block table.
func New(env Env, cfg Config, rules chain.Protocol, choice chain.ForkChoice) (*Base, error) {
	if cfg.Key == nil {
		return nil, fmt.Errorf("node: config needs a key")
	}
	if choice == nil {
		choice = &chain.HeaviestChain{RandomTieBreak: cfg.Params.RandomTieBreak, Rand: env.Rand()}
	}
	st, err := chain.New(cfg.Genesis, cfg.Params, rules, choice,
		chain.WithConnectCache(cfg.ConnectCache), chain.WithBlockTable(cfg.Blocks))
	if err != nil {
		return nil, err
	}
	return NewBase(env, st, cfg.Recorder), nil
}
