// Package node is the protocol-node framework shared by internal/bitcoin
// and internal/core: the Env runtime abstraction, the gossip message
// vocabulary, the inv/getdata block relay, and the Base node core (chain +
// mempool + relay wiring).
//
// Protocol code is written once against Env and runs unchanged on the
// discrete-event simulator (internal/simnet via the experiment harness) and
// on real TCP sockets (internal/p2p) — the repository's analogue of the
// paper's "unchanged clients" methodology (§7).
package node

import (
	"math/rand"
	"time"
)

// Timer is a cancellable scheduled callback that its holder may re-arm; the
// simulated and the p2p runtime's timers implement it.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset re-arms the timer to run its callback d from now. It may be
	// called only once the callback has run or Stop has reported true, so
	// a holder that keeps its timer re-arms it without a new one.
	Reset(d time.Duration)
}

// Env is the runtime a protocol node runs on: a clock, a scheduler, an
// identity, and links to peers.
//
// Implementations must deliver callbacks single-threaded per node: a node's
// handlers never run concurrently, so nodes need no internal locking.
type Env interface {
	// Now returns the current time in Unix nanoseconds.
	Now() int64
	// After schedules fn to run d from now, returning a new timer.
	After(d time.Duration, fn func()) Timer
	// NodeID returns this node's index in the experiment (or a unique id
	// for live nodes).
	NodeID() int
	// Peers returns the ids of directly connected peers.
	Peers() []int
	// Send transmits a gossip message to a peer.
	Send(peer int, msg Message)
	// Rand returns this node's deterministic random stream.
	Rand() *rand.Rand
}

// Recorder receives the node events the §6 metrics are computed from.
// internal/metrics implements it; NopRecorder discards.
type Recorder interface {
	// BlockGenerated fires once, on the generating node, when a block is
	// assembled.
	BlockGenerated(nodeID int, at int64, block BlockInfo)
	// BlockAccepted fires on every node whose chain accepts the block
	// (including the generator), before any tip change it causes.
	BlockAccepted(nodeID int, at int64, blockID BlockID)
	// TipChanged fires when a node's main chain changes: connected and
	// disconnected block ids, oldest first. The two slices are the node's
	// scratch, valid only during the call: a recorder that keeps ids must
	// copy them.
	TipChanged(nodeID int, at int64, tip BlockID, connected, disconnected []BlockID)
}

// NopRecorder discards all events.
type NopRecorder struct{}

// BlockGenerated implements Recorder.
func (NopRecorder) BlockGenerated(int, int64, BlockInfo) {}

// BlockAccepted implements Recorder.
func (NopRecorder) BlockAccepted(int, int64, BlockID) {}

// TipChanged implements Recorder.
func (NopRecorder) TipChanged(int, int64, BlockID, []BlockID, []BlockID) {}
