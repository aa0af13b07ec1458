package dfx

import (
	"math/rand"
	v2 "math/rand/v2"
)

// --- global draws and stdlib sources built in place ----------------------

func bad(n int) {
	_ = rand.Intn(n)                 // want `package-level math/rand\.Intn draws from the process-global source`
	_ = rand.Float64()               // want `package-level math/rand\.Float64`
	_ = rand.New(rand.NewSource(42)) // want `math/rand\.NewSource builds a random source in place`
	_ = rand.NewSource(7)            // want `math/rand\.NewSource builds a random source in place`
	_ = v2.IntN(n)                   // want `package-level math/rand/v2\.IntN`
	_ = v2.NewPCG(1, 2)              // want `math/rand/v2\.NewPCG builds a random source in place`
}

// ok: methods on an injected *rand.Rand are the sanctioned pattern.
func ok(rng *rand.Rand) int { return rng.Intn(9) }

// okNew mirrors sim.NewRand itself: wrapping an injected source in rand.New
// is the one blessed constructor shape.
func okNew(src rand.Source) *rand.Rand { return rand.New(src) }
