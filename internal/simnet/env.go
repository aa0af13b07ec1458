package simnet

import (
	"math/rand"
	"time"

	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
)

// NodeEnv implements node.Env over the emulated network: the virtual clock
// for time and scheduling, the overlay for peer messaging, and a per-node
// deterministic random stream. The experiment harness builds one per node;
// protocol code cannot tell it apart from the live TCP environment.
type NodeEnv struct {
	Loop *sim.Loop
	Net  *Network
	ID   int
	Rng  *rand.Rand

	// gen is the node's incarnation number. Timers armed under an older
	// incarnation become no-ops, so a crash cancels every pending callback
	// of the torn-down client (microblock schedule, fetch timeouts, tx
	// flushes) without tracking them individually. Bumped by Crash, read
	// only on the node's own shard.
	gen uint64
}

// envTimer is a node timer on the virtual clock. It is its own event body
// and carries the incarnation that armed it: when it fires, Run calls the
// callback only if the node has not crashed since. Reset re-arms it under
// the current incarnation, so a timer kept by its holder costs nothing per
// arming.
type envTimer struct {
	sim.Timer
	env *NodeEnv
	gen uint64
	fn  func()
}

// Run implements sim.Runnable.
func (t *envTimer) Run() {
	if t.env.gen == t.gen {
		t.fn()
	}
}

// Reset implements node.Timer.
func (t *envTimer) Reset(d time.Duration) {
	t.gen = t.env.gen
	t.env.Loop.Arm(&t.Timer, t.env.Loop.Now()+int64(d), t)
}

// NewNodeEnv builds the environment for node id, deriving its random stream
// from the experiment seed.
func NewNodeEnv(loop *sim.Loop, net *Network, id int, seed int64) *NodeEnv {
	return &NodeEnv{
		Loop: loop,
		Net:  net,
		ID:   id,
		Rng:  sim.NewRand(seed, uint64(id)+1),
	}
}

// Now implements node.Env.
func (e *NodeEnv) Now() int64 { return e.Loop.Now() }

// After implements node.Env. The timer is bound to the node's incarnation
// when it is armed (here, and at each Reset): if the node crashes before it
// fires, it does nothing.
func (e *NodeEnv) After(d time.Duration, fn func()) node.Timer {
	t := &envTimer{env: e, fn: fn}
	t.Reset(d)
	return t
}

// Bump advances the node's incarnation, neutering every timer armed before
// the call. Invoked on crash, while the loops are quiescent.
func (e *NodeEnv) Bump() { e.gen++ }

// NodeID implements node.Env.
func (e *NodeEnv) NodeID() int { return e.ID }

// Peers implements node.Env.
func (e *NodeEnv) Peers() []int { return e.Net.Peers(e.ID) }

// Send implements node.Env, charging the message's framed size to the
// bandwidth model.
func (e *NodeEnv) Send(peer int, msg node.Message) {
	e.Net.Send(e.ID, peer, msg, msg.Size())
}

// Rand implements node.Env.
func (e *NodeEnv) Rand() *rand.Rand { return e.Rng }

// Deliver wires the network's delivery callback for node id to a handler
// (typically Base.HandleMessage).
func (e *NodeEnv) Deliver(h func(from int, msg node.Message)) {
	e.Net.Handle(e.ID, func(from int, payload any, size int) {
		if msg, ok := payload.(node.Message); ok {
			h(from, msg)
		}
	})
}
