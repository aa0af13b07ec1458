//go:build race

package blockstore

// raceEnabled reports a -race build. Its instrumentation keeps the
// temporary of an append(s, make(...)...) growth on the heap, so the pins
// that count such a growth's bytes skip.
const raceEnabled = true
