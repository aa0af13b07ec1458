// Package mining implements the paper's mining substrate (§7): the
// mining-power distribution model fitted to operational Bitcoin pools
// (exponential in rank with exponent −0.27, Figure 6), and the simulated
// miner — a scheduler that triggers block generation at exponentially
// distributed intervals proportional to each miner's power, replacing proof
// of work exactly as the paper's regression-test-mode controller does.
package mining

import (
	"math"
	"math/rand"
	"sort"

	"bitcoinng/internal/stats"
)

// DefaultExponent is the paper's fitted rank exponent: the weekly mining
// power of the rank-k entity is proportional to exp(−0.27·k), with a 0.99
// coefficient of determination against the rank medians (§7 "Mining Power").
const DefaultExponent = 0.27

// ExponentialShares returns n power shares by rank, share[k] ∝ exp(−exp·(k+1)),
// normalized to sum to 1. Rank 0 is the largest miner.
func ExponentialShares(n int, exponent float64) []float64 {
	if n <= 0 {
		return nil
	}
	shares := make([]float64, n)
	var total float64
	for k := range shares {
		shares[k] = math.Exp(-exponent * float64(k+1))
		total += shares[k]
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}

// LargestShare returns the top miner's share under the model; with the
// default exponent and large n it approaches ≈0.24, the "largest miner ≈
// 1/4" the paper's §8.1 discussion references.
func LargestShare(n int, exponent float64) float64 {
	s := ExponentialShares(n, exponent)
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

// WeeklySample is one simulated week of ranked pool shares (Figure 6's
// bars): Shares[k] is the fraction of that week's blocks generated by the
// rank-k entity.
type WeeklySample struct {
	Shares []float64
}

// SampleWeeks simulates the Figure 6 data set: weeks of ranked shares where
// each entity's underlying power follows the exponential rank model
// perturbed by lognormal noise (pool membership churns week to week), then
// re-ranked — matching the paper's observation that "the ranks of different
// entities is not preserved throughout the weeks".
func SampleWeeks(rng *rand.Rand, weeks, miners int, exponent, sigma float64) []WeeklySample {
	base := ExponentialShares(miners, exponent)
	out := make([]WeeklySample, weeks)
	for w := range out {
		shares := make([]float64, miners)
		var total float64
		for i := range shares {
			noise := math.Exp(rng.NormFloat64() * sigma)
			shares[i] = base[i] * noise
			total += shares[i]
		}
		for i := range shares {
			shares[i] /= total
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
		out[w] = WeeklySample{Shares: shares}
	}
	return out
}

// RankPercentiles reduces weekly samples to per-rank percentile curves
// (the 25th/50th/75th error bars of Figure 6) over the top `ranks` ranks.
func RankPercentiles(samples []WeeklySample, ranks int, ps []float64) [][]float64 {
	out := make([][]float64, len(ps))
	for i := range out {
		out[i] = make([]float64, ranks)
	}
	column := make([]float64, 0, len(samples))
	for k := 0; k < ranks; k++ {
		column = column[:0]
		for _, s := range samples {
			if k < len(s.Shares) {
				column = append(column, s.Shares[k])
			}
		}
		sort.Float64s(column)
		for i, p := range ps {
			out[i][k] = stats.PercentileSorted(column, p)
		}
	}
	return out
}
