// Package dfxlive sits outside the deterministic zone (under internal/p2p,
// the live transport): global math/rand draws and map order reaching a
// sink are findings here too, while wall-clock and environment flows and
// map-order escapes are not.
package dfxlive

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"
)

func jitter() int {
	return rand.Intn(100) // want `package-level math/rand\.Intn draws from the process-global source`
}

func ownSource() *rand.Rand {
	return rand.New(rand.NewSource(1)) // want `math/rand\.NewSource builds a random source in place`
}

func peers(w io.Writer, m map[string]int) {
	for addr := range m { // want `range over map \(map-iteration-order\) flows to stream write \(fmt\.Fprintln\)`
		fmt.Fprintln(w, addr)
	}
}

func announce(ch chan<- string, m map[string]bool) {
	for addr := range m { // want `range over map \(map-iteration-order\) flows to channel send .* \(via p2p/dfxlive\.send\)`
		send(ch, addr)
	}
}

func send(ch chan<- string, addr string) { ch <- addr }

// okClock: wall time is the live transport's job.
func okClock(w io.Writer) {
	fmt.Fprintln(w, time.Now(), os.Getenv("HOME"))
}

// okEscape: an unsorted key list leaving a function is only a finding in
// the zone.
func okEscape(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
