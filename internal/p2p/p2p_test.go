package p2p

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// liveNG is one live Bitcoin-NG node for tests.
type liveNG struct {
	rt   *Runtime
	node *core.Node
	key  *crypto.PrivateKey
}

func liveParams() types.Params {
	p := types.DefaultParams()
	p.RetargetWindow = 0
	p.MicroblockInterval = 30 * time.Millisecond
	p.MinMicroblockInterval = time.Millisecond
	p.RandomTieBreak = false
	return p
}

func startLiveNG(t *testing.T, id int, genesis *types.PowBlock) (*liveNG, string) {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(int64(id), 77))
	if err != nil {
		t.Fatal(err)
	}
	rt := New(Config{NodeID: id, GenesisHash: genesis.Hash(), Seed: int64(id)})
	n, err := core.New(rt, core.Config{
		Params:          liveParams(),
		Key:             key,
		Genesis:         genesis,
		SimulatedMining: true, // scheduler-free tests trigger mining directly
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetHandler(func(from int, msg node.Message) { n.HandleMessage(from, msg) })
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return &liveNG{rt: rt, node: n, key: key}, addr.String()
}

// waitFor polls cond via the runtime's event loop until it holds or the
// deadline passes.
func waitFor(t *testing.T, rt *Runtime, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		ok := false
		rt.Do(func() { ok = cond() })
		if ok {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func TestLiveHandshakeAndRelay(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	a, _ := startLiveNG(t, 1, genesis)
	b, addrB := startLiveNG(t, 2, genesis)
	c, addrC := startLiveNG(t, 3, genesis)

	// Line topology: a — b — c. Blocks must relay across b to reach c.
	if err := a.rt.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	if err := b.rt.Connect(addrC); err != nil {
		t.Fatal(err)
	}
	// Connect returns once the dialer has its verack; the listening side
	// registers the peer a moment later, so give b time to count a.
	if !waitFor(t, b.rt, 5*time.Second, func() bool { return len(b.rt.Peers()) == 2 }) || len(a.rt.Peers()) != 1 {
		t.Fatalf("peer counts: a=%d b=%d", len(a.rt.Peers()), len(b.rt.Peers()))
	}

	var kb *types.KeyBlock
	a.rt.Do(func() { kb = a.node.MineKeyBlock() })
	if kb == nil {
		t.Fatal("no key block mined")
	}
	if !waitFor(t, c.rt, 5*time.Second, func() bool {
		return c.node.State.HasBlock(kb.Hash())
	}) {
		t.Fatal("key block did not relay across the line")
	}
}

func TestLiveLeaderMicroblocks(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	a, _ := startLiveNG(t, 1, genesis)
	b, addrB := startLiveNG(t, 2, genesis)
	if err := a.rt.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	a.rt.Do(func() { a.node.MineKeyBlock() })

	// The leader's microblock timers run on real time; follower b must
	// track the chain as it grows.
	if !waitFor(t, b.rt, 5*time.Second, func() bool {
		return b.node.State.Height() >= 3
	}) {
		t.Fatal("microblocks did not propagate live")
	}
	var leading bool
	a.rt.Do(func() { leading = a.node.IsLeader() })
	if !leading {
		t.Error("miner is not leader")
	}
}

func TestLiveRejectsWrongGenesis(t *testing.T) {
	g1 := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	g2 := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget, TimeNanos: 42})
	a, _ := startLiveNG(t, 1, g1)
	_, addrB := startLiveNG(t, 2, g2)
	if err := a.rt.Connect(addrB); err == nil {
		t.Error("handshake succeeded across different genesis blocks")
	}
	_ = a
}

func TestLiveRejectsDuplicateNodeID(t *testing.T) {
	g := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	a, _ := startLiveNG(t, 7, g)
	_, addrB := startLiveNG(t, 7, g)
	if err := a.rt.Connect(addrB); err == nil {
		t.Error("handshake succeeded with duplicate node id")
	}
}

func TestLiveRealProofOfWork(t *testing.T) {
	// A live Bitcoin node mining real PoW at trivial difficulty: the
	// cmd/ngnode code path end to end over TCP.
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	params := types.DefaultParams()
	params.RetargetWindow = 0
	params.RandomTieBreak = false

	mk := func(id int) (*Runtime, *bitcoin.Node, string) {
		key, err := crypto.GenerateKey(sim.NewRand(int64(id), 99))
		if err != nil {
			t.Fatal(err)
		}
		rt := New(Config{NodeID: id, GenesisHash: genesis.Hash(), Seed: int64(id)})
		n, err := bitcoin.New(rt, bitcoin.Config{
			Params:  params,
			Key:     key,
			Genesis: genesis,
			// SimulatedMining false: peers demand real proofs of work.
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetHandler(func(from int, msg node.Message) { n.HandleMessage(from, msg) })
		addr, err := rt.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt, n, addr.String()
	}
	rtA, nodeA, _ := mk(1)
	rtB, nodeB, addrB := mk(2)
	if err := rtA.Connect(addrB); err != nil {
		t.Fatal(err)
	}

	// Mine for real: grind nonces until the (easy) target is met.
	var blk *types.PowBlock
	rtA.Do(func() {
		blk = nodeA.AssembleBlock()
		for nonce := uint64(0); ; nonce++ {
			blk.Header.Nonce = nonce
			if crypto.CheckProofOfWork(blk.Header.Hash(), blk.Header.Target) {
				break
			}
		}
		nodeA.SubmitOwnBlock(blk)
	})
	if !waitFor(t, rtB, 5*time.Second, func() bool {
		return nodeB.State.Tip().Hash() == blk.Hash()
	}) {
		t.Fatal("real-PoW block did not reach the peer")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	key, _ := crypto.GenerateKey(sim.NewRand(1, 1))
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      crypto.HashBytes([]byte("p")),
			TxRoot:    crypto.MerkleRoot(nil),
			TimeNanos: 99,
		},
	}
	mb.Header.Sign(key)
	msgs := []node.Message{
		&node.InvMsg{Items: []node.Inv{{Type: wire.MsgKeyBlock, Hash: crypto.HashBytes([]byte("x"))}}},
		&node.GetDataMsg{Items: []node.Inv{{Type: wire.MsgBlock, Hash: crypto.HashBytes([]byte("y"))}}},
		&node.BlockMsg{Block: mb},
	}
	for _, in := range msgs {
		env, err := encodeMessage(in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		out, err := decodeMessage(env)
		if err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		switch m := out.(type) {
		case *node.InvMsg:
			if m.Items[0] != in.(*node.InvMsg).Items[0] {
				t.Error("inv round trip mismatch")
			}
		case *node.GetDataMsg:
			if m.Items[0] != in.(*node.GetDataMsg).Items[0] {
				t.Error("getdata round trip mismatch")
			}
		case *node.BlockMsg:
			if m.Block.Hash() != mb.Hash() {
				t.Error("block round trip mismatch")
			}
		}
	}
}

func TestCodecTxBatchRoundTrip(t *testing.T) {
	key, _ := crypto.GenerateKey(sim.NewRand(2, 1))
	var txs []*types.Transaction
	for i := 0; i < 5; i++ {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: uint32(i)}}},
			Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{byte(i)}}},
			Padding: make([]byte, i*17),
		}
		tx.SignInput(0, key)
		txs = append(txs, tx)
	}
	in := &node.TxBatchMsg{Txs: txs}
	env, err := encodeMessage(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := decodeMessage(env)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := out.(*node.TxBatchMsg)
	if !ok {
		t.Fatalf("decoded %T, want *node.TxBatchMsg", out)
	}
	if len(got.Txs) != len(txs) {
		t.Fatalf("round trip returned %d txs, want %d", len(got.Txs), len(txs))
	}
	for i := range txs {
		if got.Txs[i].ID() != txs[i].ID() {
			t.Errorf("tx %d round trip mismatch", i)
		}
	}

	// The empty batch stays legal (a flush race can drain a queue).
	env, err = encodeMessage(&node.TxBatchMsg{})
	if err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if out, err := decodeMessage(env); err != nil {
		t.Fatalf("decode empty: %v", err)
	} else if len(out.(*node.TxBatchMsg).Txs) != 0 {
		t.Fatal("empty batch round trip not empty")
	}
}

func TestCodecSyncRoundTrip(t *testing.T) {
	key, _ := crypto.GenerateKey(sim.NewRand(3, 1))
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      crypto.HashBytes([]byte("q")),
			TxRoot:    crypto.MerkleRoot(nil),
			TimeNanos: 5,
		},
	}
	mb.Header.Sign(key)

	gb := &node.GetBlocksMsg{Locator: []node.BlockID{
		crypto.HashBytes([]byte("a")),
		crypto.HashBytes([]byte("b")),
	}}
	env, err := encodeMessage(gb)
	if err != nil {
		t.Fatalf("encode getblocks: %v", err)
	}
	out, err := decodeMessage(env)
	if err != nil {
		t.Fatalf("decode getblocks: %v", err)
	}
	got, ok := out.(*node.GetBlocksMsg)
	if !ok || len(got.Locator) != 2 || got.Locator[0] != gb.Locator[0] || got.Locator[1] != gb.Locator[1] {
		t.Errorf("getblocks round trip mismatch: %#v", out)
	}

	bb := &node.BlockBatchMsg{Blocks: []types.Block{mb}, More: true}
	env, err = encodeMessage(bb)
	if err != nil {
		t.Fatalf("encode blockbatch: %v", err)
	}
	out, err = decodeMessage(env)
	if err != nil {
		t.Fatalf("decode blockbatch: %v", err)
	}
	gotB, ok := out.(*node.BlockBatchMsg)
	if !ok || len(gotB.Blocks) != 1 || gotB.Blocks[0].Hash() != mb.Hash() || !gotB.More {
		t.Errorf("blockbatch round trip mismatch: %#v", out)
	}

	// The empty terminal batch (More=false, no blocks) must survive framing —
	// it is the sync protocol's only exit signal.
	env, err = encodeMessage(&node.BlockBatchMsg{})
	if err != nil {
		t.Fatalf("encode empty batch: %v", err)
	}
	if out, err := decodeMessage(env); err != nil {
		t.Fatalf("decode empty batch: %v", err)
	} else if b := out.(*node.BlockBatchMsg); len(b.Blocks) != 0 || b.More {
		t.Error("empty batch round trip not empty")
	}
}

// TestCodecFramesAtCountedSize: for every message the codec carries, the
// frame it builds is exactly as long as the counted size the simulator's
// bandwidth model charges (node.Message.Size) — nothing is encoded to learn a
// length — and batch payloads are written into a buffer sized once. The one
// known gap is pinned rather than hidden: BlockBatchMsg.Size() leaves out the
// per-block type byte (correcting it would move every golden that syncs).
func TestCodecFramesAtCountedSize(t *testing.T) {
	key, _ := crypto.GenerateKey(sim.NewRand(4, 1))
	tx := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: 1}}},
		Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
		Padding: make([]byte, 300),
	}
	tx.SignInput(0, key)
	coinbase := &types.Transaction{Kind: types.TxCoinbase, Outputs: []types.TxOutput{{Value: 50}}}
	mb := &types.MicroBlock{Header: types.MicroBlockHeader{TimeNanos: 5}, Txs: []*types.Transaction{tx, tx}}
	mb.Header.Sign(key)
	kb := &types.KeyBlock{Header: types.KeyBlockHeader{LeaderKey: key.Public()}, Txs: []*types.Transaction{coinbase}}
	pb := &types.PowBlock{Txs: []*types.Transaction{coinbase, tx}, SimulatedPoW: true}
	inv := []node.Inv{{Type: wire.MsgKeyBlock, Hash: crypto.Hash{1}}, {Type: wire.MsgMicroBlock, Hash: crypto.Hash{2}}}

	v := &versionPayload{Version: protocolVersion, NodeID: 7, Genesis: crypto.Hash{9}}
	if got, want := wire.Size(v), len(wire.Encode(v)); got != want {
		t.Errorf("versionPayload: wire.Size = %d, encoded length %d", got, want)
	}
	for _, tc := range []struct {
		msg       node.Message
		uncharged int // frame bytes Size() does not count
	}{
		{&node.InvMsg{Items: inv}, 0},
		{&node.GetDataMsg{Items: inv[:1]}, 0},
		{&node.BlockMsg{Block: pb}, 0},
		{&node.BlockMsg{Block: kb}, 0},
		{&node.BlockMsg{Block: mb}, 0},
		{&node.TxMsg{Tx: tx}, 0},
		{&node.TxBatchMsg{Txs: []*types.Transaction{tx, tx, tx}}, 0},
		{&node.TxBatchMsg{}, 0},
		{&node.GetBlocksMsg{Locator: []node.BlockID{{1}, {2}, {3}}}, 0},
		{&node.BlockBatchMsg{Blocks: []types.Block{pb, kb, mb}, More: true}, 3},
		{&node.BlockBatchMsg{}, 0},
	} {
		env, err := encodeMessage(tc.msg)
		if err != nil {
			t.Fatalf("encode %T: %v", tc.msg, err)
		}
		var frame bytes.Buffer
		if _, err := env.WriteTo(&frame); err != nil {
			t.Fatalf("frame %T: %v", tc.msg, err)
		}
		if got, want := frame.Len(), tc.msg.Size()+tc.uncharged; got != want {
			t.Errorf("%T: frame is %d bytes, Size() + %d = %d", tc.msg, got, tc.uncharged, want)
		}
		if slack := cap(env.Payload) - len(env.Payload); slack > 13 {
			t.Errorf("%T: payload of %d bytes sits in a buffer of cap %d", tc.msg, len(env.Payload), cap(env.Payload))
		}
		if _, err := decodeMessage(env); err != nil {
			t.Errorf("decode %T: %v", tc.msg, err)
		}
	}
}

// rawHandshake dials addr and completes the version/verack exchange as a bare
// TCP client with the given claimed node id, returning the open connection.
func rawHandshake(t *testing.T, addr string, id uint64, genesis crypto.Hash) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	v := &versionPayload{Version: protocolVersion, NodeID: id, Genesis: genesis}
	if _, err := (&wire.Envelope{Type: wire.MsgVersion, Payload: wire.Encode(v)}).WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadEnvelope(conn); err != nil {
		t.Fatalf("no version back: %v", err)
	}
	if _, err := (&wire.Envelope{Type: wire.MsgVerAck, Payload: []byte{}}).WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadEnvelope(conn); err != nil {
		t.Fatalf("no verack back: %v", err)
	}
	return conn
}

// TestLiveMalformedFrameDropsPeer: a handshaked peer that sends an
// undecodable (but correctly framed) payload is disconnected, and a peer that
// violates framing itself (oversized declared length) likewise — in both
// cases the node survives and keeps serving well-behaved connections.
func TestLiveMalformedFrameDropsPeer(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	a, addrA := startLiveNG(t, 1, genesis)

	// Phase 1: valid framing, garbage payload (a truncated CompactSize makes
	// the inv list undecodable).
	conn := rawHandshake(t, addrA, 50, genesis.Hash())
	defer conn.Close()
	if !waitFor(t, a.rt, 5*time.Second, func() bool { return len(a.rt.Peers()) == 1 }) {
		t.Fatal("raw peer not registered")
	}
	if _, err := (&wire.Envelope{Type: wire.MsgInv, Payload: []byte{0xfd}}).WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, a.rt, 5*time.Second, func() bool { return len(a.rt.Peers()) == 0 }) {
		t.Fatal("malformed payload did not drop the peer")
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadEnvelope(conn); err == nil {
		t.Error("connection still open after malformed payload")
	}

	// Phase 2: framing-level violation — a header declaring an oversized
	// payload is rejected before allocation and the connection dies.
	conn2 := rawHandshake(t, addrA, 51, genesis.Hash())
	defer conn2.Close()
	if !waitFor(t, a.rt, 5*time.Second, func() bool { return len(a.rt.Peers()) == 1 }) {
		t.Fatal("second raw peer not registered")
	}
	hdr := make([]byte, 13)
	binary.LittleEndian.PutUint32(hdr[0:4], wire.Magic)
	hdr[4] = byte(wire.MsgInv)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(wire.MaxMessageSize+1))
	if _, err := conn2.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, a.rt, 5*time.Second, func() bool { return len(a.rt.Peers()) == 0 }) {
		t.Fatal("oversized frame did not drop the peer")
	}

	// The node itself is unharmed: a well-behaved connection still completes
	// the handshake and receives gossip.
	conn3 := rawHandshake(t, addrA, 52, genesis.Hash())
	defer conn3.Close()
	if !waitFor(t, a.rt, 5*time.Second, func() bool { return len(a.rt.Peers()) == 1 }) {
		t.Fatal("node stopped accepting peers after malformed input")
	}
	var kb *types.KeyBlock
	a.rt.Do(func() { kb = a.node.MineKeyBlock() })
	if kb == nil {
		t.Fatal("no key block mined")
	}
	conn3.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := wire.ReadEnvelope(conn3)
	if err != nil {
		t.Fatalf("no gossip after recovery: %v", err)
	}
	if env.Type != wire.MsgInv {
		t.Errorf("first gossip frame is %v, want inv", env.Type)
	}
}

// TestCloseRacingInboundHandshakes: a handshake that completes after Close
// took its peer snapshot used to register a peer nobody closed; its reader
// then sat on a connection the remote side kept open, and Close waited on it
// for good. Fifty dialers keep their ends open until the listener's Close has
// returned, so any leaked peer is a hang. Close must return — the bound is
// generous because the in-flight handshakes it waits out run under -race on a
// loaded machine; the failure it guards against is unbounded — and once the
// dialers are closed too, every goroutine the runtimes started is gone.
func TestCloseRacingInboundHandshakes(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	baseline := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		srv := New(Config{NodeID: 1000, GenesisHash: genesis.Hash()})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		const dialers = 50
		rts := make([]*Runtime, dialers)
		var wg sync.WaitGroup
		for i := range rts {
			rts[i] = New(Config{NodeID: i + 1, GenesisHash: genesis.Hash()})
			wg.Add(1)
			go func(rt *Runtime) {
				defer wg.Done()
				_ = rt.Connect(addr.String()) // refused or cut off by Close is fine
			}(rts[i])
		}
		// Close once the first handshakes have landed, with the rest in
		// flight; each round lands the snapshot at a different point.
		for deadline := time.Now().Add(5 * time.Second); len(srv.Peers()) <= round*8 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close still waiting after 5s with %d peers registered", round, len(srv.Peers()))
		}
		wg.Wait()
		for _, rt := range rts {
			rt.Close()
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the test", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
