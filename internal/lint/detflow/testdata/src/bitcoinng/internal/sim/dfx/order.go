package dfx

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// --- map order inside the loop that introduced it -------------------------

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over map \(map-iteration-order\) escapes through a result of bitcoinng/internal/sim/dfx\.badAppend`
		keys = append(keys, k)
	}
	return keys
}

func okSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func okSlicesSorted(m map[int]string) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

type pair struct {
	k string
	v int
}

func okSortSlice(m map[string]int) []pair {
	var ps []pair
	for k, v := range m {
		ps = append(ps, pair{k, v})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	return ps
}

func badWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want `range over map \(map-iteration-order\) flows to stream write \(fmt\.Fprintf\) at dfx/order.go:54`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

type sink interface {
	Write(p []byte) (int, error)
}

func badHash(h sink, m map[string]bool) {
	for k := range m { // want `range over map \(map-iteration-order\) flows to stream write \(io\.Writer\.Write\) at dfx/order.go:64`
		h.Write([]byte(k))
	}
}

func badSend(ch chan string, m map[string]int) {
	for k := range m { // want `range over map \(map-iteration-order\) flows to channel send at dfx/order.go:70`
		ch <- k
	}
}

// okFold: commutative reductions don't observe order.
func okFold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// okLocal: the accumulator is declared inside the loop, so it never holds
// elements from two different keys.
func okLocal(m map[string][]int) map[string]int {
	out := map[string]int{}
	for k, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		out[k] = len(doubled)
	}
	return out
}

// okSliceRange: ranging a slice is always ordered.
func okSliceRange(w io.Writer, xs []string) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}
