//go:build race

package p2p

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// what is put back, so the allocation pins that rely on a warm pool skip.
const raceEnabled = true
