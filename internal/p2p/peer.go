package p2p

import (
	"net"
	"sync"

	"bitcoinng/internal/wire"
)

// peer is one live connection: a reader goroutine decoding frames into the
// runtime's event loop and a writer goroutine draining a bounded queue, so a
// slow peer cannot block the node.
type peer struct {
	rt   *Runtime
	id   int
	conn net.Conn

	outbox    chan *wire.Envelope
	closeOnce sync.Once
	done      chan struct{}
}

// outboxDepth bounds per-peer queued frames; beyond it frames drop and the
// gossip retry machinery recovers (backpressure without head-of-line
// blocking the event loop).
const outboxDepth = 256

func newPeer(rt *Runtime, id int, conn net.Conn) *peer {
	return &peer{
		rt:     rt,
		id:     id,
		conn:   conn,
		outbox: make(chan *wire.Envelope, outboxDepth),
		done:   make(chan struct{}),
	}
}

func (p *peer) start() {
	p.rt.wg.Add(2)
	go p.readLoop()
	go p.writeLoop()
}

// readLoop reads every frame of the connection into one Envelope, so after
// the largest frame so far a read allocates nothing. deliver decodes each
// frame before the next read overwrites it, and the decoded message owns its
// bytes (see wire.Reader.VarDecode).
func (p *peer) readLoop() {
	defer p.rt.wg.Done()
	defer p.close()
	var env wire.Envelope
	for {
		if _, err := env.ReadFrom(p.conn); err != nil {
			return
		}
		if err := p.rt.deliver(p.id, &env); err != nil {
			return // undecodable frame: drop the peer, keep the node
		}
	}
}

func (p *peer) writeLoop() {
	defer p.rt.wg.Done()
	for {
		select {
		case env := <-p.outbox:
			if _, err := env.WriteTo(p.conn); err != nil {
				p.close()
				return
			}
		case <-p.done:
			return
		}
	}
}

// send enqueues a frame, dropping when the peer is saturated.
func (p *peer) send(env *wire.Envelope) {
	select {
	case p.outbox <- env:
	case <-p.done:
	default:
		// Outbox full: drop. Inventory re-announcement and fetch retry
		// make block relay loss-tolerant.
	}
}

func (p *peer) close() {
	p.closeOnce.Do(func() {
		close(p.done)
		p.conn.Close()
		p.rt.dropPeer(p)
	})
}
