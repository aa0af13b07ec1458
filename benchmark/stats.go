package main

import "sort"

// summary is how every metric is reported: the median over the timed
// children with its quartiles and the sample count. No percentile of host
// time is reported; a handful of samples cannot support one.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so the
// spreads this program prints are the ones the acceptance driver computes.
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: cut(2), Q1: cut(1), Q3: cut(3), N: len(s)}
}

// spread is the interquartile distance as a share of the median: the noise
// measure every bound in BENCHMARK.json is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

func median(values []float64) float64 { return summarize(values).Median }
