package p2p

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// frameCase is one message with the length its frame must have, counted by
// hand from the format: 13 bytes of envelope, then the payload.
type frameCase struct {
	msg  node.Message
	size int
}

// frameFixture returns one message per gossip message type, in MsgType
// order, every field fixed, so the frames they encode to are pinned byte
// strings (testdata/frames.golden).
func frameFixture(t testing.TB) []frameCase {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	tx := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: crypto.Hash{7}, Index: 1}}},
		Outputs: []types.TxOutput{{Value: 3, To: crypto.Address{1}}},
		Padding: []byte{0xa, 0xb, 0xc, 0xd},
	}
	tx.SignInput(0, key)
	coinbase := &types.Transaction{Kind: types.TxCoinbase, Height: 2, Outputs: []types.TxOutput{{Value: 50, To: crypto.Address{2}}}}
	pb := &types.PowBlock{Header: types.PowHeader{Prev: crypto.Hash{1}, TimeNanos: 5, Target: crypto.EasiestTarget, Nonce: 9}, Txs: []*types.Transaction{coinbase, tx}, SimulatedPoW: true}
	kb := &types.KeyBlock{Header: types.KeyBlockHeader{PowHeader: types.PowHeader{Prev: crypto.Hash{2}, TimeNanos: 6, Target: crypto.EasiestTarget}, LeaderKey: key.Public()}, Txs: []*types.Transaction{coinbase}, SimulatedPoW: true}
	mb := &types.MicroBlock{Header: types.MicroBlockHeader{Prev: crypto.Hash{3}, TimeNanos: 7}, Txs: []*types.Transaction{tx}}
	mb.Header.TxRoot = crypto.MerkleRoot(types.TxIDs(mb.Txs))
	mb.Header.Sign(key)
	inv := []node.Inv{{Type: wire.MsgKeyBlock, Hash: crypto.Hash{4}}, {Type: wire.MsgMicroBlock, Hash: crypto.Hash{5}}}
	if mb.WireSize() < 253 || kb.WireSize() >= 253 {
		t.Fatal("fixture: the block batch must hold members with 1- and 3-byte length prefixes")
	}
	return []frameCase{
		// count, then per item a type tag and a hash
		{&node.InvMsg{Items: inv}, 13 + 1 + 2*33},
		{&node.GetDataMsg{Items: inv[1:]}, 13 + 1 + 33},
		// the block's own encoding
		{&node.BlockMsg{Block: pb}, 13 + pb.WireSize()},
		{&node.BlockMsg{Block: kb}, 13 + kb.WireSize()},
		{&node.BlockMsg{Block: mb}, 13 + mb.WireSize()},
		{&node.TxMsg{Tx: tx}, 13 + tx.WireSize()},
		// count, then per transaction a length prefix and its encoding
		{&node.TxBatchMsg{Txs: []*types.Transaction{tx, coinbase}}, 13 + 1 + (1 + tx.WireSize()) + (1 + coinbase.WireSize())},
		// count, then the hashes
		{&node.GetBlocksMsg{Locator: []node.BlockID{{6}, {7}}}, 13 + 1 + 2*32},
		// More flag, count, then per block a type tag, a length prefix and
		// its encoding
		{&node.BlockBatchMsg{Blocks: []types.Block{kb, mb}, More: true}, 13 + 1 + 1 + (1 + 1 + kb.WireSize()) + (1 + 3 + mb.WireSize())},
		// header, count, then the IDs
		{&node.CompactBlockMsg{Block: mb}, 13 + 136 + 1 + 32},
		// hash, count, then each index as a CompactSize
		{&node.GetBlockTxnMsg{Hash: crypto.Hash{11}, Indexes: []uint32{0, 300}}, 13 + 32 + 1 + 1 + 3},
		// hash, count, then per transaction a length prefix and its encoding
		{&node.BlockTxnMsg{Hash: crypto.Hash{12}, Txs: []*types.Transaction{tx}}, 13 + 32 + 1 + (1 + tx.WireSize())},
	}
}

// readGoldenFrames reads testdata/frames.golden: message type name → frame.
func readGoldenFrames(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			name, frame, _ := strings.Cut(line, " ")
			golden[name] = frame
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestGoldenFrames pins the live wire format and the charged sizes together:
// every gossip message type frames to its pinned bytes, at its hand-counted
// length, which is what Size() charges; the frame decodes through
// node.NewMessage back to a message of its type that re-encodes to it; and
// the constructor table knows exactly the types with a golden frame.
func TestGoldenFrames(t *testing.T) {
	golden := readGoldenFrames(t)
	seen := map[wire.MsgType]bool{}
	for _, tc := range frameFixture(t) {
		typ := tc.msg.Type()
		seen[typ] = true
		env := encodeMessage(tc.msg)
		var frame bytes.Buffer
		if _, err := env.WriteTo(&frame); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if got := hex.EncodeToString(frame.Bytes()); got != golden[typ.String()] {
			t.Errorf("%v: frame differs from the golden one\n got %s\nwant %s", typ, got, golden[typ.String()])
		}
		if frame.Len() != tc.size || tc.msg.Size() != tc.size {
			t.Errorf("%v: frame %d bytes, Size() %d, counted by hand %d", typ, frame.Len(), tc.msg.Size(), tc.size)
		}
		out, err := decodeMessage(env)
		if err != nil {
			t.Fatalf("%v: decode: %v", typ, err)
		}
		if out.Type() != typ || !bytes.Equal(encodeMessage(out).Payload, env.Payload) {
			t.Errorf("%v: decodes to a %v that re-encodes differently", typ, out.Type())
		}
	}
	if len(seen) != len(golden) {
		t.Errorf("%d golden frames for %d message types", len(golden), len(seen))
	}
	for typ := wire.MsgType(0); typ < 255; typ++ {
		m, err := node.NewMessage(typ)
		if (err == nil) != seen[typ] {
			t.Errorf("%v: NewMessage error %v, golden frame %v", typ, err, seen[typ])
		}
		if err == nil && m.Type() != typ {
			t.Errorf("NewMessage(%v) made a %v", typ, m.Type())
		}
	}
}

// TestFrameByteFlipsRoundTrip holds every codec to the decode-then-reencode
// identity that block hashes, relays and the connect cache rely on: each
// input decodes and re-encodes to itself, and so does every payload with one
// byte changed (xor 0x01, 0x80 or 0xff) that decodes at all. A decoder that
// reads fields in another order or width than its encoder writes them, or
// accepts a non-canonical byte, fails here. The inputs are every golden
// frame's message, a poison transaction (its evidence is in no frame) and
// the handshake.
func TestFrameByteFlipsRoundTrip(t *testing.T) {
	type input struct {
		name    string
		payload []byte
		// roundTrip decodes payload and returns its re-encoding.
		roundTrip func([]byte) ([]byte, error)
	}
	message := func(name string, m node.Message) input {
		typ := m.Type()
		return input{name, wire.Encode(m), func(b []byte) ([]byte, error) {
			out, err := decodeMessage(&wire.Envelope{Type: typ, Payload: b})
			if err != nil {
				return nil, err
			}
			return wire.Encode(out), nil
		}}
	}
	var inputs []input
	for _, tc := range frameFixture(t) {
		inputs = append(inputs, message(tc.msg.Type().String(), tc.msg))
	}

	key, err := crypto.GenerateKey(sim.NewRand(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	pruned := types.MicroBlockHeader{Prev: crypto.Hash{3}, TimeNanos: 8, TxRoot: crypto.Hash{10}}
	pruned.Sign(key)
	inputs = append(inputs, message("poison tx", &node.TxMsg{Tx: &types.Transaction{
		Kind:     types.TxPoison,
		Outputs:  []types.TxOutput{{Value: 1, To: crypto.Address{3}}},
		Evidence: &types.PoisonEvidence{Culprit: crypto.Hash{13}, Pruned: pruned, Conflict: crypto.Hash{14}},
	}}))

	inputs = append(inputs, input{"version", wire.Encode(&versionPayload{Version: protocolVersion, NodeID: 7, Genesis: crypto.Hash{9}}),
		func(b []byte) ([]byte, error) {
			var v versionPayload
			if err := wire.Decode(b, &v); err != nil {
				return nil, err
			}
			return wire.Encode(&v), nil
		}})

next:
	for _, in := range inputs {
		if out, err := in.roundTrip(in.payload); err != nil || !bytes.Equal(out, in.payload) {
			t.Errorf("%s: decode error %v, re-encoding %x, was %x", in.name, err, out, in.payload)
			continue
		}
		flipped := make([]byte, len(in.payload))
		for i := range in.payload {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				copy(flipped, in.payload)
				flipped[i] ^= mask
				if out, err := in.roundTrip(flipped); err == nil && !bytes.Equal(out, flipped) {
					t.Errorf("%s: byte %d ^ %#x decodes but re-encodes differently\n got %x\nwant %x", in.name, i, mask, out, flipped)
					continue next
				}
			}
		}
	}
}

// TestSizeDoesNotAllocate: the simulator charges Size() on every send, so
// each message type counts its frame without allocating, blocks and
// transactions from their memoized sizes.
func TestSizeDoesNotAllocate(t *testing.T) {
	for _, tc := range frameFixture(t) {
		if a := testing.AllocsPerRun(100, func() { tc.msg.Size() }); a != 0 {
			t.Errorf("%v: Size() allocates %v times, want 0", tc.msg.Type(), a)
		}
	}
}

// TestHostileCountsDoNotAllocate: a frame whose 3-byte payload declares
// 65 535 items fails before the decoder allocates for them, for every
// list-carrying type — the count is bounded by the handler's limit and by
// the bytes left.
func TestHostileCountsDoNotAllocate(t *testing.T) {
	count := []byte{0xfd, 0xff, 0xff}
	for _, env := range []*wire.Envelope{
		{Type: wire.MsgInv, Payload: count},
		{Type: wire.MsgGetData, Payload: count},
		{Type: wire.MsgTxBatch, Payload: count},
		{Type: wire.MsgGetBlocks, Payload: count},
		{Type: wire.MsgBlockBatch, Payload: append([]byte{1}, count...)},
		{Type: wire.MsgCompactBlock, Payload: append(make([]byte, wire.Size(new(types.MicroBlockHeader))), count...)},
		{Type: wire.MsgGetBlockTxn, Payload: append(make([]byte, 32), count...)},
		{Type: wire.MsgBlockTxn, Payload: append(make([]byte, 32), count...)},
	} {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := decodeMessage(env); err == nil {
				t.Fatalf("%v: a hostile count decoded", env.Type)
			}
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 4<<10 {
			t.Errorf("%v: decoding a hostile count allocates %d bytes", env.Type, perRun)
		}
	}
}

// FuzzMessage: whatever (type, payload) the constructor table decodes
// re-encodes to the same payload, and Size() is its frame's length.
func FuzzMessage(f *testing.F) {
	for _, tc := range frameFixture(f) {
		f.Add(uint8(tc.msg.Type()), wire.Encode(tc.msg))
	}
	f.Add(uint8(wire.MsgInv), wire.Encode(&node.InvMsg{Items: make([]node.Inv, 300)}))
	f.Add(uint8(wire.MsgInv), []byte{0xfd, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		m, err := decodeMessage(&wire.Envelope{Type: wire.MsgType(typ), Payload: payload})
		if err != nil {
			return
		}
		env := encodeMessage(m)
		if env.Type != wire.MsgType(typ) || !bytes.Equal(env.Payload, payload) {
			t.Fatalf("%v payload re-encodes as %v %x, was %x", wire.MsgType(typ), env.Type, env.Payload, payload)
		}
		var frame bytes.Buffer
		if _, err := env.WriteTo(&frame); err != nil {
			t.Fatal(err)
		}
		if m.Size() != frame.Len() {
			t.Fatalf("%v: Size() %d, frame %d bytes", env.Type, m.Size(), frame.Len())
		}
	})
}
