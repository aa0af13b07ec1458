//go:build !race

package p2p

const raceEnabled = false
