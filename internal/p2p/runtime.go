package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/validate"
	"bitcoinng/internal/wire"
)

// Config configures a live runtime.
type Config struct {
	// NodeID is this node's unique identity in the live network.
	NodeID int
	// Genesis pins the network: peers with different genesis hashes are
	// rejected during the handshake.
	GenesisHash crypto.Hash
	// Seed drives the node's random stream (tie-breaking).
	Seed int64
}

// Runtime implements node.Env over TCP. All protocol callbacks (message
// handlers, timers) execute on one event-loop goroutine, matching the
// simulator's single-threaded delivery contract, so node code needs no
// locks.
type Runtime struct {
	cfg Config
	rng *rand.Rand

	events chan func()
	quit   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	listener net.Listener
	peers    map[int]*peer
	closed   bool // set by Close; no peer registers afterwards

	handler func(from int, msg node.Message)
}

// New creates a runtime; call SetHandler, then Listen and/or Connect.
func New(cfg Config) *Runtime {
	rt := &Runtime{
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed, uint64(cfg.NodeID)),
		events: make(chan func(), 1024),
		quit:   make(chan struct{}),
		peers:  make(map[int]*peer),
	}
	rt.wg.Add(1)
	go rt.loop()
	return rt
}

// SetHandler registers the message sink (typically Base.HandleMessage).
func (rt *Runtime) SetHandler(h func(from int, msg node.Message)) {
	rt.handler = h
}

// loop is the single-threaded executor.
func (rt *Runtime) loop() {
	defer rt.wg.Done()
	for {
		select {
		case fn := <-rt.events:
			fn()
		case <-rt.quit:
			return
		}
	}
}

// Do runs fn on the event loop and waits for it — the safe way for external
// goroutines (miners, CLIs) to touch protocol state.
func (rt *Runtime) Do(fn func()) {
	done := make(chan struct{})
	select {
	case rt.events <- func() { fn(); close(done) }:
	case <-rt.quit:
		return
	}
	select {
	case <-done:
	case <-rt.quit:
	}
}

// post schedules fn asynchronously on the event loop.
func (rt *Runtime) post(fn func()) {
	select {
	case rt.events <- fn:
	case <-rt.quit:
	}
}

// Now implements node.Env using the wall clock.
func (rt *Runtime) Now() int64 { return time.Now().UnixNano() } //nglint:allow walltime live harness IS the wall-clock node.Env implementation; simulations use sim.Loop's virtual clock

// liveTimer wraps time.Timer as a node.Timer whose callback runs on the
// event loop.
type liveTimer struct {
	t       *time.Timer
	stopped bool
	mu      sync.Mutex
}

func (lt *liveTimer) Stop() bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.stopped {
		return false
	}
	lt.stopped = true
	return lt.t.Stop()
}

// After implements node.Env.
func (rt *Runtime) After(d time.Duration, fn func()) node.Timer {
	lt := &liveTimer{}
	//nglint:allow walltime live node.Env timers are real timers; the deterministic counterpart is sim.Loop.After
	lt.t = time.AfterFunc(d, func() {
		rt.post(func() {
			lt.mu.Lock()
			stopped := lt.stopped
			lt.mu.Unlock()
			if !stopped {
				fn()
			}
		})
	})
	return lt
}

// NodeID implements node.Env.
func (rt *Runtime) NodeID() int { return rt.cfg.NodeID }

// Peers implements node.Env.
func (rt *Runtime) Peers() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ids := make([]int, 0, len(rt.peers))
	for id := range rt.peers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Rand implements node.Env.
func (rt *Runtime) Rand() *rand.Rand { return rt.rng }

// Send implements node.Env: non-blocking enqueue to the peer's writer.
func (rt *Runtime) Send(peerID int, msg node.Message) {
	rt.mu.Lock()
	p := rt.peers[peerID]
	rt.mu.Unlock()
	if p == nil {
		return // disconnected; gossip retry logic recovers
	}
	env, err := encodeMessage(msg)
	if err != nil {
		return
	}
	p.send(env)
}

// Listen accepts inbound connections on addr ("host:port").
func (rt *Runtime) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen %s: %w", addr, err)
	}
	rt.mu.Lock()
	rt.listener = ln
	rt.mu.Unlock()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			rt.wg.Add(1)
			go func() {
				defer rt.wg.Done()
				rt.setupPeer(conn, false)
			}()
		}
	}()
	return ln.Addr(), nil
}

// Connect dials a peer and completes the handshake synchronously.
func (rt *Runtime) Connect(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	return rt.setupPeer(conn, true)
}

// handshake errors.
var (
	errBadVersion = errors.New("p2p: version mismatch")
	errBadGenesis = errors.New("p2p: different genesis")
	errSelfID     = errors.New("p2p: peer has our node id")
	errClosed     = errors.New("p2p: runtime closed")
)

// setupPeer performs the version/verack handshake and registers the peer.
// The dialer speaks first.
func (rt *Runtime) setupPeer(conn net.Conn, dialer bool) error {
	fail := func(err error) error {
		conn.Close()
		return err
	}
	deadline := time.Now().Add(10 * time.Second) //nglint:allow walltime TCP handshake I/O deadline on a live socket
	conn.SetDeadline(deadline)

	ours := &versionPayload{
		Version: protocolVersion,
		NodeID:  uint64(rt.cfg.NodeID),
		Genesis: rt.cfg.GenesisHash,
	}
	sendVersion := func() error {
		env := &wire.Envelope{Type: wire.MsgVersion, Payload: wire.Encode(ours)}
		_, err := env.WriteTo(conn)
		return err
	}
	var env wire.Envelope // both handshake frames are read into it
	recvVersion := func() (*versionPayload, error) {
		if _, err := env.ReadFrom(conn); err != nil {
			return nil, err
		}
		if env.Type != wire.MsgVersion {
			return nil, fmt.Errorf("p2p: expected version, got %v", env.Type)
		}
		theirs := new(versionPayload)
		if err := wire.Decode(env.Payload, theirs); err != nil {
			return nil, err
		}
		if theirs.Version != protocolVersion {
			return nil, errBadVersion
		}
		if crypto.Hash(theirs.Genesis) != rt.cfg.GenesisHash {
			return nil, errBadGenesis
		}
		if int(theirs.NodeID) == rt.cfg.NodeID {
			return nil, errSelfID
		}
		return theirs, nil
	}
	ack := func() error {
		env := &wire.Envelope{Type: wire.MsgVerAck, Payload: []byte{}}
		_, err := env.WriteTo(conn)
		return err
	}
	recvAck := func() error {
		if _, err := env.ReadFrom(conn); err != nil {
			return err
		}
		if env.Type != wire.MsgVerAck {
			return fmt.Errorf("p2p: expected verack, got %v", env.Type)
		}
		return nil
	}

	var theirs *versionPayload
	var err error
	if dialer {
		if err = sendVersion(); err != nil {
			return fail(err)
		}
		if theirs, err = recvVersion(); err != nil {
			return fail(err)
		}
		if err = ack(); err != nil {
			return fail(err)
		}
		if err = recvAck(); err != nil {
			return fail(err)
		}
	} else {
		if theirs, err = recvVersion(); err != nil {
			return fail(err)
		}
		if err = sendVersion(); err != nil {
			return fail(err)
		}
		if err = recvAck(); err != nil {
			return fail(err)
		}
		if err = ack(); err != nil {
			return fail(err)
		}
	}
	conn.SetDeadline(time.Time{})

	// Registration and Close's snapshot exclude each other: a handshake
	// that completes after the snapshot would otherwise register a peer
	// nobody closes, whose reader Close then waits on forever. The peer's
	// goroutines start under the lock too, so they are in rt.wg before
	// Close can reach Wait.
	p := newPeer(rt, int(theirs.NodeID), conn)
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return fail(errClosed)
	}
	old := rt.peers[p.id]
	rt.peers[p.id] = p
	p.start()
	rt.mu.Unlock()
	if old != nil {
		old.close()
	}
	return nil
}

// dropPeer unregisters a dead connection.
func (rt *Runtime) dropPeer(p *peer) {
	rt.mu.Lock()
	if rt.peers[p.id] == p {
		delete(rt.peers, p.id)
	}
	rt.mu.Unlock()
}

// deliver routes an inbound message to the handler on the event loop. Block
// payloads get their stateless verification (stage 1: hashes, PoW, Merkle
// roots, transaction signatures) pre-warmed on the worker pool first: the
// reader goroutine owns the freshly decoded object exclusively, the pool's
// barrier completes before the post, and the single-threaded protocol loop
// then only sees verdict-cache hits instead of paying milliseconds of
// signature checks per block.
//
// A frame that fails to decode is returned as an error, and the reader drops
// the connection: a handshaked peer sending garbage is either corrupting
// traffic or hostile, and continuing to parse its stream risks
// desynchronized framing. The node itself stays up — malformed input must
// never panic past this boundary.
func (rt *Runtime) deliver(from int, env *wire.Envelope) error {
	msg, err := decodeMessage(env)
	if err != nil {
		return err // malformed; caller drops the peer
	}
	if bm, ok := msg.(*node.BlockMsg); ok {
		validate.SharedPool().WarmBlock(bm.Block)
	}
	rt.post(func() {
		if rt.handler != nil {
			rt.handler(from, msg)
		}
	})
	return nil
}

// Close shuts the runtime down: listener, peers, event loop.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	if rt.listener != nil {
		rt.listener.Close()
	}
	ids := make([]int, 0, len(rt.peers))
	for id := range rt.peers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	peers := make([]*peer, 0, len(ids))
	for _, id := range ids {
		peers = append(peers, rt.peers[id])
	}
	rt.peers = map[int]*peer{}
	rt.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
	close(rt.quit)
	rt.wg.Wait()
}
