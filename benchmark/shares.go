package main

// facts are the operation counts of one timed region, as far as public
// results reveal them. The attribution multiplies them by unit costs; the
// README states each approximation.
type facts struct {
	harness   string // "experiment", "cluster" or "live"
	nodes     int
	sharded   bool
	fileStore bool
	// signed counts transactions generated and signed inside the timed region
	// (the experiment harness signs on demand; the cluster workloads pre-sign).
	signed int64
	// analyses counts metrics.Analyze calls inside the timed region;
	// analyzeRecords is nodes × blocks of the run metrics.analyze_ms was
	// measured on, which the attribution scales by.
	analyses       int64
	analyzeRecords float64
	// storeSyncs and replayedBlocks drive the file-store costs.
	storeSyncs, replayedBlocks int64
	// injected, relayDeliveries and walks drive the mempool and load costs of
	// the cluster harness: every node admits each injected transaction once,
	// and relayDeliveries counts the copies of one transaction the relay
	// delivers network-wide (one per directed link, less the link each node
	// first heard it on).
	injected, relayDeliveries, walks int64
	// peers, txs and wireBytes describe a live sync.
	peers          int
	txs, wireBytes int64
}

// shareNames lists the attribution metrics in the order they are printed.
var shareNames = []string{"crypto", "wire", "utxo", "validate", "mempool", "sim", "simnet", "store", "load", "metrics"}

// attribute estimates where a timed region's CPU went: for each layer,
// operation count × unit cost ÷ cpu_s, with what is left reported as
// share.unattributed. Unit costs come from the same traced child, so both
// factors saw the same machine. The model is deliberately coarse — it is an
// outside-in map for choosing targets, not a profile.
func attribute(f facts, layer map[string]float64, confirmed int64, cpuSeconds float64) {
	us := func(name string) float64 { return layer[name] * 1e-6 }
	ns := func(name string) float64 { return layer[name] * 1e-9 }
	pos := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	perMB := func(name string) float64 { // seconds per byte
		if layer[name] <= 0 {
			return 0
		}
		return 1 / (layer[name] * 1e6)
	}
	sec := map[string]float64{}

	blocks := layer["chain.blocks"]
	// Transactions per block, taken over the main chain (key blocks included).
	var perBlock float64
	if mb := layer["chain.main_blocks"]; mb > 0 {
		perBlock = float64(confirmed) / mb
	}
	hitTxs := layer["validate.cache_hits"] * perBlock
	missTxs := layer["validate.cache_misses"] * perBlock
	verifyAndSign := us("crypto.sign_us") + us("crypto.verify_us")

	switch f.harness {
	case "experiment", "cluster":
		// A block's Merkle root is built once by its producer and checked
		// once by the first validator; simulated nodes share the verdict.
		sec["crypto"] = float64(f.signed)*verifyAndSign + 2*blocks*perBlock*us("crypto.merkle_us_per_leaf")
		sec["utxo"] = missTxs*us("utxo.apply_us_per_tx") + hitTxs*us("utxo.redo_us_per_tx")
		sec["validate"] = missTxs*pos(us("validate.connect_warm_miss_us_per_tx")-us("utxo.apply_us_per_tx")) +
			hitTxs*pos(us("validate.connect_hit_us_per_tx")-us("utxo.redo_us_per_tx"))
		events, perEvent := layer["sim.events"], ns("sim.loop_ns_per_event")
		if f.sharded {
			perEvent = ns("sim.sharded_ns_per_event")
		}
		if events == 0 {
			// The cluster harness does not expose its event count; one
			// delivery event per message sent is the floor.
			events = layer["simnet.msgs_sent"]
		}
		sec["sim"] = events * perEvent
		sec["simnet"] = layer["simnet.msgs_sent"] * pos(ns("simnet.send_ns_per_msg")-ns("sim.loop_ns_per_event"))
		sec["load"] = float64(f.signed)*pos(us("load.stream_gen_us_per_tx")-verifyAndSign) +
			float64(f.walks)*layer["load.confirm_walk_ms"]*1e-3
		// Analyze walks every node's record of every block; scale the
		// canonical cluster's cost by that product.
		if f.analyses > 0 && f.analyzeRecords > 0 {
			scale := float64(f.nodes) * blocks / f.analyzeRecords
			sec["metrics"] = float64(f.analyses) * layer["metrics.analyze_ms"] * 1e-3 * scale
		}
	case "live":
		n := float64(f.peers)
		hash := float64(f.wireBytes) * perMB("crypto.hash_mb_s")
		sec["crypto"] = n * (float64(f.txs)*(us("crypto.verify_us")+us("crypto.merkle_us_per_leaf")) + hash)
		sec["wire"] = n * float64(f.wireBytes) * perMB("p2p.loopback_mb_s")
		sec["utxo"] = n * float64(f.txs) * us("utxo.apply_us_per_tx")
		perTxHash := 0.0
		if f.txs > 0 {
			perTxHash = hash / float64(f.txs)
		}
		sec["validate"] = n * float64(f.txs) * pos(us("validate.connect_miss_us_per_tx")-us("crypto.verify_us")-
			us("crypto.merkle_us_per_leaf")-us("utxo.apply_us_per_tx")-perTxHash)
	}
	if f.harness == "cluster" {
		dups := float64(f.injected) * pos(float64(f.relayDeliveries)-float64(f.nodes-1))
		sec["mempool"] = float64(f.injected)*float64(f.nodes)*(us("mempool.add_us")+us("mempool.remove_confirmed_us_per_tx")) +
			dups*us("mempool.add_dup_us") + blocks*perBlock*us("mempool.select_us_per_tx")
	}
	if f.fileStore {
		// A restart decodes the node's chain from its index, and decoded
		// copies carry no verdicts: every replayed transaction is verified
		// and every replayed block's Merkle root checked again.
		sec["crypto"] += float64(f.replayedBlocks) * perBlock * (us("crypto.verify_us") + us("crypto.merkle_us_per_leaf"))
		sec["store"] = missTxs*pos(us("store.file_apply_us_per_tx")-us("utxo.apply_us_per_tx")) +
			hitTxs*pos(us("store.file_redo_us_per_tx")-us("utxo.redo_us_per_tx")) +
			float64(f.storeSyncs)*layer["store.file_sync_ms"]*1e-3 +
			(layer["validate.cache_hits"]+layer["validate.cache_misses"])*us("store.index_append_us_per_block") +
			float64(f.replayedBlocks)*us("store.index_replay_us_per_block")
	}

	var sum float64
	for _, name := range shareNames {
		share := 0.0
		if cpuSeconds > 0 {
			share = sec[name] / cpuSeconds
		}
		layer["share."+name] = share
		sum += share
	}
	layer["share.unattributed"] = 1 - sum
}
