package main

import "sort"

// metricDef names one reported metric. Better is "lower" or "higher".
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; BENCHMARK.json
	// carries the same value and the tests hold the two together.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, printed for every
// workload by untraced runs. The first five are host costs of producing the
// run; the rest are the run's own outputs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"host_tps", "tx/s", "higher", 0.25},
	{"confirmed_tps", "tx/s", "higher", 0.25},
	{"ok_share", "share", "higher", 0.02},
	{"conf_p50_s", "s", "lower", 0.25},
	{"consensus_delay_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, printed for every workload by
// the traced run. A count a workload's public results do not expose reads 0.
var perLayer = []metricDef{
	// Paper-level outputs too seed-sensitive to carry a bound.
	{"protocol.conf_p90_s", "s", "lower", 0},
	{"protocol.conf_p99_s", "s", "lower", 0},
	{"protocol.propagation_p50_s", "s", "lower", 0},
	// Exact counts from public results.
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_cpu_s", "1/s", "higher", 0},
	{"simnet.msgs_sent", "count", "lower", 0},
	{"simnet.bytes_sent", "B", "lower", 0},
	{"simnet.msgs_lost", "count", "lower", 0},
	{"simnet.max_queue_delay_s", "s", "lower", 0},
	{"node.msgs_per_confirmed_tx", "count", "lower", 0},
	{"node.bytes_per_confirmed_tx", "B", "lower", 0},
	{"node.pending_fetch_max", "count", "lower", 0},
	{"mempool.depth_max", "count", "lower", 0},
	{"load.lookahead_max", "count", "lower", 0},
	{"validate.cache_hits", "count", "higher", 0},
	{"validate.cache_misses", "count", "lower", 0},
	{"validate.cache_hit_ratio", "share", "higher", 0},
	{"chain.blocks", "count", "lower", 0},
	{"chain.main_blocks", "count", "higher", 0},
	{"chain.pruned_share", "share", "lower", 0},
	{"store.gets", "count", "lower", 0},
	{"store.puts", "count", "lower", 0},
	{"store.page_reads", "count", "lower", 0},
	{"store.page_writes", "count", "lower", 0},
	{"store.page_hit_ratio", "share", "higher", 0},
	{"store.journal_mb", "MB", "lower", 0},
	{"store.checkpoints", "count", "lower", 0},
	{"p2p.blocks_synced", "count", "higher", 0},
	{"p2p.bytes_synced", "B", "higher", 0},
	{"p2p.peer_sync_s_min", "s", "lower", 0},
	{"p2p.peer_sync_s_max", "s", "lower", 0},
	{"p2p.peers_dropped", "count", "lower", 0},
	{"cluster.submit_s", "s", "lower", 0},
	{"cluster.run_s", "s", "lower", 0},
	{"cluster.confirm_walk_s", "s", "lower", 0},
	// Unit costs from replaying the canonical chain through each layer.
	{"crypto.verify_us", "us", "lower", 0},
	{"crypto.sign_us", "us", "lower", 0},
	{"crypto.merkle_us_per_leaf", "us", "lower", 0},
	{"crypto.pow_check_ns", "ns", "lower", 0},
	{"crypto.hash_mb_s", "MB/s", "higher", 0},
	{"wire.block_encode_mb_s", "MB/s", "higher", 0},
	{"wire.block_decode_mb_s", "MB/s", "higher", 0},
	{"utxo.apply_us_per_tx", "us", "lower", 0},
	{"utxo.undo_us_per_tx", "us", "lower", 0},
	{"utxo.redo_us_per_tx", "us", "lower", 0},
	{"validate.connect_miss_us_per_tx", "us", "lower", 0},
	{"validate.connect_hit_us_per_tx", "us", "lower", 0},
	{"validate.connect_warm_miss_us_per_tx", "us", "lower", 0},
	{"validate.pool_warm_us_per_tx", "us", "lower", 0},
	{"mempool.add_us", "us", "lower", 0},
	{"mempool.add_dup_us", "us", "lower", 0},
	{"mempool.select_us_per_tx", "us", "lower", 0},
	{"mempool.remove_confirmed_us_per_tx", "us", "lower", 0},
	{"store.file_apply_us_per_tx", "us", "lower", 0},
	{"store.file_undo_us_per_tx", "us", "lower", 0},
	{"store.file_redo_us_per_tx", "us", "lower", 0},
	{"store.file_sync_ms", "ms", "lower", 0},
	{"store.index_append_us_per_block", "us", "lower", 0},
	{"store.index_replay_us_per_block", "us", "lower", 0},
	{"sim.loop_ns_per_event", "ns", "lower", 0},
	{"sim.sharded_ns_per_event", "ns", "lower", 0},
	{"simnet.send_ns_per_msg", "ns", "lower", 0},
	{"load.stream_gen_us_per_tx", "us", "lower", 0},
	{"load.confirm_walk_ms", "ms", "lower", 0},
	{"metrics.analyze_ms", "ms", "lower", 0},
	{"p2p.loopback_mb_s", "MB/s", "higher", 0},
	// Attribution: operation count × unit cost ÷ cpu_s of the traced child.
	{"share.crypto", "share", "lower", 0},
	{"share.wire", "share", "lower", 0},
	{"share.utxo", "share", "lower", 0},
	{"share.validate", "share", "lower", 0},
	{"share.mempool", "share", "lower", 0},
	{"share.sim", "share", "lower", 0},
	{"share.simnet", "share", "lower", 0},
	{"share.store", "share", "lower", 0},
	{"share.load", "share", "lower", 0},
	{"share.metrics", "share", "lower", 0},
	{"share.unattributed", "share", "lower", 0},
	{"trace.cpu_s", "s", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
