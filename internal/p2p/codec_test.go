package p2p

import (
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// encodeMessage frames a gossip message as an Envelope of its own, the
// reference the tests hold the pooled frames to.
func encodeMessage(m node.Message) *wire.Envelope {
	return &wire.Envelope{Type: m.Type(), Payload: wire.Encode(m)}
}

// TestSendReusesFrames pins the live send path on a loopback pair: once
// warm, Runtime.Send encodes into a pooled frame that the peer's writer
// returns after writing it, so a send allocates nothing, and the bytes on
// the wire are the Envelope framing of the message.
func TestSendReusesFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("-race empties sync.Pools at random")
	}
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	rt := New(Config{NodeID: 1, GenesisHash: genesis.Hash(), Seed: 1})
	t.Cleanup(rt.Close)
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := rawHandshake(t, addr.String(), 50, genesis.Hash())
	defer conn.Close()
	if !waitFor(t, rt, 5*time.Second, func() bool { return len(rt.Peers()) == 1 }) {
		t.Fatal("raw peer not registered")
	}
	msg := &node.InvMsg{Items: []node.Inv{
		{Type: wire.MsgMicroBlock, Hash: node.BlockID(crypto.HashBytes([]byte("a")))},
		{Type: wire.MsgKeyBlock, Hash: node.BlockID(crypto.HashBytes([]byte("b")))},
	}}
	want := encodeMessage(msg)
	var env wire.Envelope
	exchange := func() {
		rt.Send(50, msg)
		if _, err := env.ReadFrom(conn); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if env.Type != want.Type || string(env.Payload) != string(want.Payload) {
		t.Fatalf("sent frame %v %x, want %v %x", env.Type, env.Payload, want.Type, want.Payload)
	}
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
		t.Fatalf("a warm send allocates %v times, want 0", allocs)
	}
}
