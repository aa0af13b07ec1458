package chaos

import "bitcoinng/internal/experiment"

// engineVariant is one execution-engine/cache/storage combination the
// differential checker replays a seed under.
type engineVariant struct {
	name        string
	parallelism int
	cacheOff    bool
	// storeURL selects the storage backend ("" = in-memory, "file:" = a
	// throwaway file-backed root). Storage must never reach consensus, so
	// reports are byte-identical across backends too.
	storeURL string
}

// diffVariants cross-checks the two simulation engines (the classic
// sequential loop and the 4-shard conservative windowed engine), the
// connect cache (shared memoized connects vs full local re-validation), and
// the storage backends (in-memory vs file-backed chain index).
// The first entry is the baseline the others must match byte for byte.
var diffVariants = []engineVariant{
	{"parallelism=1 cache=on store=mem", 1, false, ""},
	{"parallelism=4 cache=on store=mem", 4, false, ""},
	{"parallelism=1 cache=off store=mem", 1, true, ""},
	{"parallelism=1 cache=on store=file", 1, false, "file:"},
	{"parallelism=4 cache=off store=file", 4, true, "file:"},
}

// variantConfig specializes a generated run to one variant. Only engine and
// storage knobs change; everything behavioural stays shared (the scenario,
// shares, and invariant instances are all read-only during a run).
func variantConfig(gen Generated, v engineVariant) experiment.Config {
	cfg := gen.Cfg
	cfg.Parallelism = v.parallelism
	cfg.DisableConnectCache = v.cacheOff
	cfg.StoreURL = v.storeURL
	return cfg
}

// Differential replays a generated run under every engine/cache variant,
// concurrently on the experiment.Sweep pool, and returns an error on a
// failed run, a baseline verdict or the first digest divergence in variant
// order — the "same seed, same report, any engine" guarantee that makes
// every other chaos finding trustworthy (a violation that appeared on only
// one engine would be an engine bug, not a protocol bug).
func Differential(gen Generated) error {
	return sweepSeeds([]Generated{gen}, diffVariants, 0)[0].Err
}
