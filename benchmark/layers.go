package main

import (
	"fmt"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/load"
	"bitcoinng/internal/mempool"
	"bitcoinng/internal/node"
	"bitcoinng/internal/p2p"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/store"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
	"bitcoinng/internal/validate"
	"bitcoinng/internal/wire"
)

// unitBlocks caps how many canonical blocks each unit cost replays, which
// keeps the traced child's extra time to a few seconds.
const unitBlocks = 96

// unitCosts measures what one operation of each layer costs by replaying the
// canonical chain through that layer's public API, from outside: a span per
// call where a call handles a whole block, a span per batch where a call is
// shorter than the clock reads around it. Each cost is the median over its
// spans of duration per operation. A layer that cannot be driven (an error
// from its API) leaves its metrics at zero and reports the reason.
func unitCosts(cn *canonical, seed int64, tr *tracer, layer map[string]float64) []string {
	blocks := cn.blocks
	encoded := cn.encoded
	kinds := cn.kinds
	if len(blocks) > unitBlocks {
		blocks, encoded, kinds = blocks[:unitBlocks], encoded[:unitBlocks], kinds[:unitBlocks]
	}
	root := tr.begin("unit", -1)
	defer tr.end(root, 1)
	var problems []string
	steps := []struct {
		name string
		run  func() error
	}{
		{"crypto", func() error { return unitCrypto(blocks, encoded, seed, tr, root) }},
		{"wire", func() error { return unitWire(blocks, encoded, kinds, tr, root) }},
		{"utxo", func() error { return unitUTXO(cn, blocks, utxo.New(), "utxo", tr, root) }},
		{"validate", func() error { return unitValidate(cn, encoded, kinds, seed, tr, root) }},
		{"mempool", func() error { return unitMempool(cn, blocks, tr, root) }},
		{"store", func() error { return unitStore(cn, blocks, tr, root) }},
		{"sim", func() error { return unitSim(seed, tr, root) }},
		{"simnet", func() error { return unitSimnet(seed, tr, root) }},
		{"load", func() error { return unitLoad(seed, tr, root) }},
		{"p2p", func() error { return unitP2P(cn, blocks, seed, tr, root) }},
		{"metrics", func() error {
			for i := 0; i < 5; i++ {
				id := tr.begin("metrics.analyze", root)
				cn.cluster.Report()
				tr.end(id, 1)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			problems = append(problems, fmt.Sprintf("unit cost %s: %v", s.name, err))
		}
	}

	us := func(span string) float64 { return tr.unitNs(span) / 1e3 }
	ms := func(span string) float64 { return tr.unitNs(span) / 1e6 }
	// mbPerS turns nanoseconds per byte into megabytes per second.
	mbPerS := func(span string) float64 {
		if ns := tr.unitNs(span); ns > 0 {
			return 1e3 / ns
		}
		return 0
	}
	layer["crypto.verify_us"] = us("crypto.verify")
	layer["crypto.sign_us"] = us("crypto.sign")
	layer["crypto.merkle_us_per_leaf"] = us("crypto.merkle")
	layer["crypto.pow_check_ns"] = tr.unitNs("crypto.pow_check")
	layer["crypto.hash_mb_s"] = mbPerS("crypto.hash")
	layer["wire.block_encode_mb_s"] = mbPerS("wire.block_encode")
	layer["wire.block_decode_mb_s"] = mbPerS("wire.block_decode")
	layer["utxo.apply_us_per_tx"] = us("utxo.apply")
	layer["utxo.undo_us_per_tx"] = us("utxo.undo")
	layer["utxo.redo_us_per_tx"] = us("utxo.redo")
	layer["validate.connect_miss_us_per_tx"] = us("validate.connect_miss")
	layer["validate.connect_hit_us_per_tx"] = us("validate.connect_hit")
	layer["validate.connect_warm_miss_us_per_tx"] = us("validate.connect_warm_miss")
	layer["validate.pool_warm_us_per_tx"] = us("validate.pool_warm")
	layer["mempool.add_us"] = us("mempool.add")
	layer["mempool.add_dup_us"] = us("mempool.add_dup")
	layer["mempool.select_us_per_tx"] = us("mempool.select")
	layer["mempool.remove_confirmed_us_per_tx"] = us("mempool.remove_confirmed")
	layer["store.file_apply_us_per_tx"] = us("store.file.apply")
	layer["store.file_undo_us_per_tx"] = us("store.file.undo")
	layer["store.file_redo_us_per_tx"] = us("store.file.redo")
	layer["store.file_sync_ms"] = ms("store.file.sync")
	layer["store.index_append_us_per_block"] = us("store.index_append")
	layer["store.index_replay_us_per_block"] = us("store.index_replay")
	layer["sim.loop_ns_per_event"] = tr.unitNs("sim.loop")
	layer["sim.sharded_ns_per_event"] = tr.unitNs("sim.sharded")
	layer["simnet.send_ns_per_msg"] = tr.unitNs("simnet.send")
	layer["load.stream_gen_us_per_tx"] = us("load.stream_gen")
	layer["load.confirm_walk_ms"] = ms("load.confirm_walk")
	layer["metrics.analyze_ms"] = ms("metrics.analyze")
	layer["p2p.loopback_mb_s"] = mbPerS("p2p.loopback")
	return problems
}

// regular returns a block's transactions that carry inputs (everything but
// the coinbase).
func regular(b types.Block) []*types.Transaction {
	var out []*types.Transaction
	for _, tx := range b.Transactions() {
		if tx.Kind == types.TxRegular {
			out = append(out, tx)
		}
	}
	return out
}

func unitCrypto(blocks []types.Block, encoded [][]byte, seed int64, tr *tracer, root int) error {
	var msg crypto.Hash
	for _, b := range blocks {
		txs := regular(b)
		if len(txs) == 0 {
			continue
		}
		hashes := make([]crypto.Hash, len(txs))
		var inputs int64
		for i, tx := range txs {
			hashes[i] = tx.SigHash()
			inputs += int64(len(tx.Inputs))
		}
		msg = hashes[0]
		id := tr.begin("crypto.verify", root)
		for i, tx := range txs {
			for k := range tx.Inputs {
				if !tx.Inputs[k].PubKey.Verify(hashes[i][:], tx.Inputs[k].Sig) {
					return fmt.Errorf("canonical transaction %s fails verification", tx.ID().Short())
				}
			}
		}
		tr.end(id, inputs)

		ids := types.TxIDs(b.Transactions())
		id = tr.begin("crypto.merkle", root)
		crypto.MerkleRoot(ids)
		tr.end(id, int64(len(ids)))
	}
	key, err := crypto.GenerateKey(sim.NewRand(seed, 0x60001))
	if err != nil {
		return err
	}
	for batch := 0; batch < 16; batch++ {
		id := tr.begin("crypto.sign", root)
		for i := 0; i < 64; i++ {
			key.Sign(msg[:])
		}
		tr.end(id, 64)
	}
	for batch := 0; batch < 16; batch++ {
		id := tr.begin("crypto.pow_check", root)
		for i := 0; i < 10000; i++ {
			crypto.CheckProofOfWork(msg, crypto.EasiestTarget)
		}
		tr.end(id, 10000)
	}
	for _, enc := range encoded {
		id := tr.begin("crypto.hash", root)
		crypto.HashBytes(enc)
		tr.end(id, int64(len(enc)))
	}
	return nil
}

func unitWire(blocks []types.Block, encoded [][]byte, kinds []wire.MsgType, tr *tracer, root int) error {
	for i, b := range blocks {
		id := tr.begin("wire.block_encode", root)
		enc := wire.Encode(b)
		tr.end(id, int64(len(enc)))

		id = tr.begin("wire.block_decode", root)
		_, err := types.DecodeBlockMsg(kinds[i], encoded[i])
		tr.end(id, int64(len(encoded[i])))
		if err != nil {
			return err
		}
	}
	return nil
}

// ledger is the mutation surface utxo.Set and the file-backed store share.
type ledger interface {
	ApplyBlock(txs []*types.Transaction, ctx utxo.BlockContext) (*utxo.Delta, []types.Amount, error)
	RedoBlock(d *utxo.Delta, at utxo.BlockRef)
	UndoBlock(d *utxo.Delta, at utxo.BlockRef)
}

// unitUTXO applies, undoes and redoes every block against a ledger that
// starts from genesis; prefix names the spans.
func unitUTXO(cn *canonical, blocks []types.Block, set ledger, prefix string, tr *tracer, root int) error {
	gref := utxo.BlockRef{Block: cn.genesis.Hash()}
	if _, _, err := set.ApplyBlock(cn.genesis.Transactions(), utxo.BlockContext{Params: cn.params, Ref: gref}); err != nil {
		return fmt.Errorf("genesis: %w", err)
	}
	for i, b := range blocks {
		txs := b.Transactions()
		ops := int64(len(txs))
		ref := utxo.BlockRef{Block: b.Hash(), Parent: b.PrevHash()}
		id := tr.begin(prefix+".apply", root)
		d, _, err := set.ApplyBlock(txs, utxo.BlockContext{Height: uint64(i + 1), Params: cn.params, Ref: ref})
		tr.end(id, ops)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		id = tr.begin(prefix+".undo", root)
		set.UndoBlock(d, ref)
		tr.end(id, ops)
		id = tr.begin(prefix+".redo", root)
		set.RedoBlock(d, ref)
		tr.end(id, ops)
	}
	return nil
}

// unitValidate connects the chain four ways: fresh copies into a fresh state
// (a cold miss: hashing, signatures, rules, ledger), the same objects into a
// second state on the same cache (a hit: the memoized delta replays), the
// same objects into a third state on an empty cache (a warm miss: what a
// simulated node pays when it is first to see a block whose transactions
// the workload already verified), and fresh copies through the verify pool.
func unitValidate(cn *canonical, encoded [][]byte, kinds []wire.MsgType, seed int64, tr *tracer, root int) error {
	decode := func() ([]types.Block, error) {
		out := make([]types.Block, len(encoded))
		for i := range encoded {
			b, err := types.DecodeBlockMsg(kinds[i], encoded[i])
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	// connect adds every block to a new state on cache, one span per block.
	connect := func(cache *validate.Cache, blocks []types.Block, span string) (*chain.State, error) {
		st, err := chain.New(cn.genesis, cn.params, core.Rules{AllowSimulatedPoW: true},
			&chain.HeaviestChain{Rand: sim.NewRand(seed, 0x60002)}, chain.WithConnectCache(cache))
		if err != nil {
			return nil, err
		}
		for i, b := range blocks {
			id := tr.begin(span, root)
			res, err := st.AddBlock(b, b.Time())
			tr.end(id, int64(len(b.Transactions())))
			if err != nil || res == nil || res.Status != chain.StatusMainChain {
				return nil, fmt.Errorf("%s block %d: status %v: %v", span, i, res, err)
			}
		}
		return st, nil
	}
	blocks, err := decode()
	if err != nil {
		return err
	}
	shared := validate.NewCache(0)
	if _, err := connect(shared, blocks, "validate.connect_miss"); err != nil {
		return err
	}
	hit, err := connect(shared, blocks, "validate.connect_hit")
	if err != nil {
		return err
	}
	if _, err := connect(validate.NewCache(0), blocks, "validate.connect_warm_miss"); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		id := tr.begin("load.confirm_walk", root)
		load.Confirmations(hit.Tip())
		tr.end(id, 1)
	}
	cold, err := decode()
	if err != nil {
		return err
	}
	for _, b := range cold {
		id := tr.begin("validate.pool_warm", root)
		validate.SharedPool().WarmBlock(b)
		tr.end(id, int64(len(b.Transactions())))
	}
	return nil
}

func unitMempool(cn *canonical, blocks []types.Block, tr *tracer, root int) error {
	// The pool resolves fees against the confirmed ledger, as node.NewBase
	// wires it; the stream's chained spends resolve only for lane heads.
	ledger := utxo.New()
	if _, _, err := ledger.ApplyBlock(cn.genesis.Transactions(), utxo.BlockContext{Params: cn.params, Ref: utxo.BlockRef{Block: cn.genesis.Hash()}}); err != nil {
		return err
	}
	pool := mempool.New()
	pool.SetLimits(mempool.Limits{MaxTxs: 20000})
	pool.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
		e, ok := ledger.Lookup(op)
		return e.Value, ok
	})
	for _, b := range blocks {
		txs := regular(b)
		if len(txs) == 0 {
			continue
		}
		id := tr.begin("mempool.add", root)
		for _, tx := range txs {
			if err := pool.Add(tx); err != nil {
				return fmt.Errorf("add: %w", err)
			}
		}
		tr.end(id, int64(len(txs)))
		id = tr.begin("mempool.add_dup", root)
		for _, tx := range txs {
			_ = pool.Add(tx) // the duplicate refusal is the operation being timed
		}
		tr.end(id, int64(len(txs)))
	}
	for i := 0; i < 16; i++ {
		id := tr.begin("mempool.select", root)
		sel := pool.Select(cn.params.MaxBlockSize)
		tr.end(id, int64(len(sel)))
	}
	for _, b := range blocks {
		txs := regular(b)
		if len(txs) == 0 {
			continue
		}
		id := tr.begin("mempool.remove_confirmed", root)
		pool.RemoveConfirmed(txs)
		tr.end(id, int64(len(txs)))
	}
	return nil
}

func unitStore(cn *canonical, blocks []types.Block, tr *tracer, root int) (err error) {
	factory, err := store.NewFactory("file:")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := factory.Close(); err == nil {
			err = cerr
		}
	}()
	ledger, err := factory.NewUTXO("unit")
	if err != nil {
		return err
	}
	defer ledger.Close()
	if err := ledger.Reset(); err != nil {
		return err
	}
	// Sync after every 16 blocks, the cadence of filestore8's maintenance
	// boundaries relative to its microblock rate.
	synced := &syncingLedger{UTXO: ledger, every: 16, tr: tr, root: root}
	if err := unitUTXO(cn, blocks, synced, "store.file", tr, root); err != nil {
		return err
	}
	if synced.err != nil {
		return synced.err
	}

	index, err := factory.NewChainIndex("unit")
	if err != nil {
		return err
	}
	defer index.Close()
	for _, b := range blocks {
		id := tr.begin("store.index_append", root)
		err := index.Append(b, b.Time())
		tr.end(id, 1)
		if err != nil {
			return err
		}
	}
	if err := index.Sync(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		id := tr.begin("store.index_replay", root)
		var n int64
		err := index.Replay(func(types.Block, int64) error { n++; return nil })
		tr.end(id, n)
		if err != nil {
			return err
		}
	}
	return nil
}

// syncingLedger flushes the file-backed ledger every few applied blocks,
// under a span of its own.
type syncingLedger struct {
	store.UTXO
	every, applied int
	tr             *tracer
	root           int
	err            error
}

func (s *syncingLedger) RedoBlock(d *utxo.Delta, at utxo.BlockRef) {
	s.UTXO.RedoBlock(d, at)
	if s.applied++; s.applied%s.every == 0 && s.err == nil {
		id := s.tr.begin("store.file.sync", s.root)
		s.err = s.UTXO.Sync()
		s.tr.end(id, 1)
	}
}

// counter is a do-nothing event.
type counter struct{ n int }

func (c *counter) Run() { c.n++ }

func unitSim(seed int64, tr *tracer, root int) error {
	const events = 100_000
	rng := sim.NewRand(seed, 0x60003)
	var c counter
	for batch := 0; batch < 5; batch++ {
		loop := sim.NewLoop(0)
		id := tr.begin("sim.loop", root)
		for i := 0; i < events; i++ {
			loop.PostEvent(rng.Int63n(int64(time.Second)), &c)
		}
		loop.Drain(0)
		tr.end(id, events)
	}
	for batch := 0; batch < 5; batch++ {
		sl := sim.NewShardedLoop(0, 2)
		sl.SetLookahead(time.Millisecond)
		counters := [2]counter{}
		id := tr.begin("sim.sharded", root)
		for i := 0; i < events; i++ {
			sl.Shard(i%2).PostEvent(rng.Int63n(int64(time.Second)), &counters[i%2])
		}
		sl.RunFor(time.Second)
		tr.end(id, events)
		sl.Close()
		if got := counters[0].n + counters[1].n; got != events {
			return fmt.Errorf("sharded loop ran %d of %d events", got, events)
		}
	}
	if c.n != 5*events {
		return fmt.Errorf("loop ran %d of %d events", c.n, 5*events)
	}
	return nil
}

func unitSimnet(seed int64, tr *tracer, root int) error {
	const nodes, msgs = 16, 20_000
	loop := sim.NewLoop(0)
	net := simnet.New(loop, simnet.DefaultConfig(nodes, seed))
	delivered := 0
	for i := 0; i < nodes; i++ {
		net.Handle(i, func(int, any, int) { delivered++ })
	}
	for batch := 0; batch < 5; batch++ {
		id := tr.begin("simnet.send", root)
		for i := 0; i < msgs; i++ {
			from := i % nodes
			peers := net.Peers(from)
			net.Send(from, peers[i%len(peers)], nil, 100)
		}
		loop.Drain(0)
		tr.end(id, msgs)
	}
	if delivered != 5*msgs {
		return fmt.Errorf("delivered %d of %d messages", delivered, 5*msgs)
	}
	return nil
}

func unitLoad(seed int64, tr *tracer, root int) error {
	stream, err := load.NewStream(load.StreamConfig{Seed: sim.DeriveSeed(seed, 0x60004), TxSize: txSize, Lanes: 64})
	if err != nil {
		return err
	}
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget, Payouts: stream.GenesisPayouts()})
	stream.Bind(genesis.Txs[0].ID(), 0)
	const batch = 256
	for b := int64(0); b < 12; b++ {
		id := tr.begin("load.stream_gen", root)
		for i := b * batch; i < (b+1)*batch; i++ {
			if stream.Tx(i) == nil {
				return fmt.Errorf("stream ended at %d", i)
			}
		}
		tr.end(id, batch)
	}
	return nil
}

// unitP2P moves the chain across one loopback TCP connection as sync
// batches, one batch in flight: encode, frame, write, read, decode.
func unitP2P(cn *canonical, blocks []types.Block, seed int64, tr *tracer, root int) error {
	cfg := func(id int) p2p.Config {
		return p2p.Config{NodeID: id, GenesisHash: cn.genesis.Hash(), Seed: seed}
	}
	sender, receiver := p2p.New(cfg(1)), p2p.New(cfg(2))
	defer sender.Close()
	defer receiver.Close()
	hello := make(chan int, 1)
	sender.SetHandler(func(from int, _ node.Message) {
		select {
		case hello <- from:
		default:
		}
	})
	got := make(chan int, 1)
	receiver.SetHandler(func(_ int, msg node.Message) {
		if m, ok := msg.(*node.BlockBatchMsg); ok {
			got <- len(m.Blocks)
		}
	})
	addr, err := sender.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := receiver.Connect(addr.String()); err != nil {
		return err
	}
	// The receiver speaks first so the sender's side of the handshake is
	// known to be complete before the timed sends start.
	receiver.Send(1, &node.GetBlocksMsg{Locator: []node.BlockID{cn.genesis.Hash()}})
	deadline := deadlineAfter(syncDeadline)
	var peer int
	select {
	case peer = <-hello:
	case <-deadline:
		return fmt.Errorf("no hello from the receiving peer")
	}
	const batch = 16
	for i := 0; i+batch <= len(blocks); i += batch {
		var bytes int64
		for _, b := range blocks[i : i+batch] {
			bytes += int64(b.WireSize())
		}
		id := tr.begin("p2p.loopback", root)
		sender.Send(peer, &node.BlockBatchMsg{Blocks: blocks[i : i+batch]})
		select {
		case n := <-got:
			tr.end(id, bytes)
			if n != batch {
				return fmt.Errorf("batch of %d arrived as %d", batch, n)
			}
		case <-deadline:
			return fmt.Errorf("batch %d never arrived", i/batch)
		}
	}
	return nil
}
