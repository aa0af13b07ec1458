package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// FileUTXO is the beyond-RAM ledger store: a utxo.Set over the paged on-disk
// table, made durable by an append-only op-log journal plus periodic full
// checkpoints. Every block application/redo/undo appends the block's delta
// to the journal; Sync fsyncs the journal (durability is acknowledged at
// quiescent boundaries, like the block archive) and, once enough records
// have accumulated, folds them into a fresh checkpoint and starts a new
// journal epoch.
//
// Crash consistency hangs on the epoch handshake: the checkpoint's meta
// record and the journal's leading record both carry an epoch number. A
// checkpoint is published atomically (write-temp, fsync, rename) with epoch
// E+1 while the live journal still says E; the journal is only reset to a
// new E+1 epoch record afterwards. On open, a journal whose epoch does not
// match the checkpoint is a leftover from a crash inside that window — its
// deltas are already folded into the checkpoint — and is discarded. Torn
// journal tails recover by longest-valid-prefix truncation, the same
// discipline as the block archive.
//
// Journal write errors are sticky: after the first failure the store refuses
// further mutations and surfaces the error on every ApplyBlock/Sync/Close,
// because acknowledging blocks that were never journaled would silently
// narrow the durable prefix.

// Journal and checkpoint record kinds.
const (
	recJEpoch   byte = 1 // journal: u64 epoch, always the first record
	recJApply   byte = 2 // journal: block hash + parent hash + encoded delta
	recJUndo    byte = 3 // journal: same payload, replayed in reverse
	recCkptMeta byte = 4 // checkpoint: u64 epoch, always the first record
	recCkptEnts byte = 5 // checkpoint: u32 count + (outpoint, entry) pairs
	recCkptPsn  byte = 6 // checkpoint: u32 count + coinbase txids
)

// ckptEntryBatch bounds one recCkptEnts record well under maxRecSize.
const ckptEntryBatch = 4096

// defaultCkptEvery is how many journaled deltas trigger a checkpoint at the
// next Sync.
const defaultCkptEvery = 512

type FileUTXO struct {
	set   *utxo.Set
	table *pagedTable

	journal *os.File
	jPath   string
	jOff    int64
	epoch   uint64
	rec     []byte // journalOp's record buffer, reused across appends

	ckptPath string
	// ckptEvery is the journal-record count that triggers a checkpoint at
	// the next Sync; tests lower it to force checkpoint cycles.
	ckptEvery  int
	jSinceCkpt int

	// jStats holds the journal/checkpoint counters; table counters live in
	// the paged table and the two are merged by Stats.
	jStats utxo.Stats

	err error // sticky journal failure
}

// OpenFileUTXO opens (or creates) the ledger store rooted at dir under the
// given name, recovering state from its checkpoint and journal. cachePages
// bounds the paged table's resident cache (≤ 0 takes the default).
func OpenFileUTXO(dir, name string, cachePages int) (*FileUTXO, error) {
	u := &FileUTXO{
		jPath:     filepath.Join(dir, name+".journal"),
		ckptPath:  filepath.Join(dir, name+".ckpt"),
		ckptEvery: defaultCkptEvery,
	}
	table, err := newPagedTable(filepath.Join(dir, name+".tab"), cachePages)
	if err != nil {
		return nil, err
	}
	u.table = table
	u.set = utxo.NewWith(table)
	if err := u.loadCheckpoint(); err != nil {
		table.Close()
		return nil, err
	}
	if err := u.openJournal(); err != nil {
		table.Close()
		return nil, err
	}
	return u, nil
}

// loadCheckpoint rebuilds the table from the checkpoint file, if present,
// and records its epoch. Entries load through the table's raw insert path so
// recovery does not count as ledger operations.
func (u *FileUTXO) loadCheckpoint() error {
	f, err := os.Open(u.ckptPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: checkpoint %s: %w", u.ckptPath, err)
	}
	defer f.Close()
	first := true
	_, err = scanRecs(f, func(kind byte, payload []byte) error {
		if first {
			first = false
			if kind != recCkptMeta || len(payload) != 8 {
				return fmt.Errorf("store: checkpoint %s: missing meta record", u.ckptPath)
			}
			u.epoch = binary.LittleEndian.Uint64(payload)
			return nil
		}
		switch kind {
		case recCkptEnts:
			if len(payload) < 4 {
				return fmt.Errorf("store: checkpoint %s: short entries record", u.ckptPath)
			}
			n := int(binary.LittleEndian.Uint32(payload))
			const pair = utxo.OutPointWireSize + utxo.EntryWireSize
			if len(payload) != 4+n*pair {
				return fmt.Errorf("store: checkpoint %s: entries record length mismatch", u.ckptPath)
			}
			for i := 0; i < n; i++ {
				off := 4 + i*pair
				op := utxo.GetOutPoint(payload[off:])
				e := utxo.GetEntry(payload[off+utxo.OutPointWireSize:])
				if err := u.table.put(op, e); err != nil {
					return err
				}
			}
		case recCkptPsn:
			if len(payload) < 4 {
				return fmt.Errorf("store: checkpoint %s: short poison record", u.ckptPath)
			}
			n := int(binary.LittleEndian.Uint32(payload))
			if len(payload) != 4+n*crypto.HashSize {
				return fmt.Errorf("store: checkpoint %s: poison record length mismatch", u.ckptPath)
			}
			for i := 0; i < n; i++ {
				var h crypto.Hash
				copy(h[:], payload[4+i*crypto.HashSize:])
				u.table.SetPoisoned(h, true)
			}
		default:
			return fmt.Errorf("store: checkpoint %s: unknown record kind %d", u.ckptPath, kind)
		}
		return nil
	})
	return err
}

// errStaleJournal aborts journal replay when the leading epoch record does
// not match the checkpoint: the journal predates the checkpoint and its
// deltas are already folded in.
var errStaleJournal = errors.New("store: stale journal epoch")

// openJournal opens the journal, replays the records of the current epoch
// onto the recovered table, truncates any torn tail, and leaves the file
// positioned for appends. A stale or headerless journal is discarded and
// restarted at the checkpoint's epoch.
func (u *FileUTXO) openJournal() error {
	f, err := os.OpenFile(u.jPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal %s: %w", u.jPath, err)
	}
	sawEpoch := false
	valid, err := scanRecs(f, func(kind byte, payload []byte) error {
		if !sawEpoch {
			if kind != recJEpoch || len(payload) != 8 {
				return errStaleJournal
			}
			if binary.LittleEndian.Uint64(payload) != u.epoch {
				return errStaleJournal
			}
			sawEpoch = true
			return nil
		}
		ref, d, err := decodeJournalOp(payload)
		if err != nil {
			return err
		}
		switch kind {
		case recJApply:
			u.set.RedoBlock(d, ref)
		case recJUndo:
			u.set.UndoBlock(d, ref)
		default:
			return fmt.Errorf("store: journal %s: unknown record kind %d", u.jPath, kind)
		}
		u.jSinceCkpt++
		return nil
	})
	switch {
	case err == errStaleJournal:
		// Crash window between checkpoint publication and journal reset, or
		// a brand-new file: restart the journal at the current epoch.
		valid = 0
		fallthrough
	case err == nil:
		info, statErr := f.Stat()
		if statErr != nil {
			f.Close()
			return statErr
		}
		if valid < info.Size() {
			if terr := f.Truncate(valid); terr != nil {
				f.Close()
				return fmt.Errorf("store: truncating journal %s: %w", u.jPath, terr)
			}
		}
	default:
		f.Close()
		return err
	}
	u.journal = f
	u.jOff = valid
	if u.jOff == 0 {
		if err := u.writeEpochRec(); err != nil {
			f.Close()
			return err
		}
	}
	return nil
}

func (u *FileUTXO) writeEpochRec() error {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], u.epoch)
	n, err := appendRec(u.journal, u.jOff, recJEpoch, p[:])
	if err != nil {
		return err
	}
	u.jOff += n
	return nil
}

// appendJournalOp appends an apply/undo payload to dst: the delta framed with
// the block it belongs to.
func appendJournalOp(dst []byte, ref utxo.BlockRef, d *utxo.Delta) []byte {
	dst = append(dst, ref.Block[:]...)
	dst = append(dst, ref.Parent[:]...)
	return utxo.AppendDelta(dst, d)
}

func decodeJournalOp(payload []byte) (utxo.BlockRef, *utxo.Delta, error) {
	if len(payload) < 2*crypto.HashSize {
		return utxo.BlockRef{}, nil, errors.New("store: journal record too short")
	}
	var ref utxo.BlockRef
	copy(ref.Block[:], payload[0:])
	copy(ref.Parent[:], payload[crypto.HashSize:])
	d, err := utxo.DecodeDelta(payload[2*crypto.HashSize:])
	return ref, d, err
}

// journalOp appends one apply/undo record; failures become sticky.
func (u *FileUTXO) journalOp(kind byte, ref utxo.BlockRef, d *utxo.Delta) error {
	if u.err != nil {
		return u.err
	}
	u.rec = appendJournalOp(beginRec(u.rec, kind), ref, d)
	n, err := writeRec(u.journal, u.jOff, u.rec)
	if err != nil {
		u.err = fmt.Errorf("store: utxo journal: %w", err)
		return u.err
	}
	u.jOff += n
	u.jSinceCkpt++
	u.jStats.JournalRecords++
	u.jStats.JournalBytes += uint64(n)
	return nil
}

// --- store.UTXO / chain.UTXOStore surface ---

func (u *FileUTXO) Lookup(op types.OutPoint) (utxo.Entry, bool) { return u.set.Lookup(op) }
func (u *FileUTXO) Len() int                                    { return u.set.Len() }
func (u *FileUTXO) Range(fn func(op types.OutPoint, e utxo.Entry) bool) {
	u.set.Range(fn)
}
func (u *FileUTXO) BalanceOf(addr crypto.Address) types.Amount { return u.set.BalanceOf(addr) }
func (u *FileUTXO) Poisoned(coinbaseID crypto.Hash) bool       { return u.set.Poisoned(coinbaseID) }

// ApplyBlock validates and applies the block, then journals its delta. A
// journal failure rolls the application back and returns the error: the
// store must never hold state it cannot recover.
func (u *FileUTXO) ApplyBlock(txs []*types.Transaction, ctx utxo.BlockContext) (*utxo.Delta, []types.Amount, error) {
	if u.err != nil {
		return nil, nil, u.err
	}
	d, fees, err := u.set.ApplyBlock(txs, ctx)
	if err != nil {
		return nil, nil, err
	}
	if jerr := u.journalOp(recJApply, ctx.Ref, d); jerr != nil {
		u.set.UndoBlock(d, ctx.Ref)
		return nil, nil, jerr
	}
	return d, fees, nil
}

// RedoBlock replays a recorded delta forward and journals it. Like the
// in-memory set it has no error channel; a journal failure leaves the state
// applied and sticks, surfacing at the next ApplyBlock/Sync/Close.
func (u *FileUTXO) RedoBlock(d *utxo.Delta, at utxo.BlockRef) {
	u.set.RedoBlock(d, at)
	_ = u.journalOp(recJApply, at, d)
}

// UndoBlock reverses a block application and journals the reversal.
func (u *FileUTXO) UndoBlock(d *utxo.Delta, at utxo.BlockRef) {
	u.set.UndoBlock(d, at)
	_ = u.journalOp(recJUndo, at, d)
}

// Stats merges the paged table's counters with the journal's.
func (u *FileUTXO) Stats() utxo.Stats {
	s := u.table.Stats()
	s.Add(u.jStats)
	return s
}

// Reset drops all state — table, journal, checkpoint — and starts a fresh
// epoch. Cumulative counters and a sticky journal error survive; a store
// that cannot journal stays failed until reopened.
func (u *FileUTXO) Reset() error {
	if u.err != nil {
		return u.err
	}
	if err := u.table.Reset(); err != nil {
		return err
	}
	if err := os.Remove(u.ckptPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing checkpoint: %w", err)
	}
	if err := u.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting journal: %w", err)
	}
	u.jOff = 0
	u.jSinceCkpt = 0
	u.epoch++
	return u.writeEpochRec()
}

// Sync makes all acknowledged state durable: table pages flushed, journal
// fsynced, and — once enough records accumulated since the last checkpoint —
// the journal folded into a fresh checkpoint.
func (u *FileUTXO) Sync() error {
	if u.err != nil {
		return u.err
	}
	if err := u.table.Sync(); err != nil {
		return err
	}
	if err := u.journal.Sync(); err != nil {
		u.err = fmt.Errorf("store: utxo journal sync: %w", err)
		return u.err
	}
	if u.jSinceCkpt >= u.ckptEvery {
		return u.checkpoint()
	}
	return nil
}

// checkpoint publishes the current table as a checkpoint file and resets the
// journal to a new epoch. The temp-write/fsync/rename/reset sequence is the
// crash-safety protocol documented on the type.
func (u *FileUTXO) checkpoint() error {
	tmp := u.ckptPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: checkpoint temp: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	var off int64
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[:], u.epoch+1)
	n, err := appendRec(f, off, recCkptMeta, meta[:])
	if err != nil {
		return fail(err)
	}
	off += n

	const pair = utxo.OutPointWireSize + utxo.EntryWireSize
	// One record buffer serves every batch: header, u32 count, pairs.
	const countAt = recHeaderSize
	batch := append(beginRec(make([]byte, 0, countAt+4+ckptEntryBatch*pair), recCkptEnts), 0, 0, 0, 0)
	count := 0
	flushBatch := func() error {
		if count == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(batch[countAt:], uint32(count))
		n, err := writeRec(f, off, batch)
		if err != nil {
			return err
		}
		off += n
		batch = batch[:countAt+4]
		count = 0
		return nil
	}
	var rangeErr error
	u.table.Range(func(op types.OutPoint, e utxo.Entry) bool {
		var buf [pair]byte
		utxo.PutOutPoint(buf[:], op)
		utxo.PutEntry(buf[utxo.OutPointWireSize:], e)
		batch = append(batch, buf[:]...)
		count++
		if count == ckptEntryBatch {
			if rangeErr = flushBatch(); rangeErr != nil {
				return false
			}
		}
		return true
	})
	if rangeErr != nil {
		return fail(rangeErr)
	}
	if err := flushBatch(); err != nil {
		return fail(err)
	}

	if len(u.table.poisoned) > 0 {
		ids := make([]crypto.Hash, 0, len(u.table.poisoned))
		for id := range u.table.poisoned {
			ids = append(ids, id)
		}
		// Checkpoint bytes must be a pure function of state, not of map
		// iteration order.
		sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
		p := make([]byte, 4+len(ids)*crypto.HashSize)
		binary.LittleEndian.PutUint32(p[0:4], uint32(len(ids)))
		for i, id := range ids {
			copy(p[4+i*crypto.HashSize:], id[:])
		}
		n, err := appendRec(f, off, recCkptPsn, p)
		if err != nil {
			return fail(err)
		}
		off += n
	}

	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("store: checkpoint sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, u.ckptPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint publish: %w", err)
	}
	// Checkpoint is live; retire the journal into the new epoch.
	u.epoch++
	if err := u.journal.Truncate(0); err != nil {
		u.err = fmt.Errorf("store: journal reset: %w", err)
		return u.err
	}
	u.jOff = 0
	if err := u.writeEpochRec(); err != nil {
		u.err = err
		return u.err
	}
	if err := u.journal.Sync(); err != nil {
		u.err = fmt.Errorf("store: journal sync: %w", err)
		return u.err
	}
	u.jSinceCkpt = 0
	u.jStats.Checkpoints++
	return nil
}

// Close flushes and releases everything, surfacing any sticky failure.
func (u *FileUTXO) Close() error {
	var first error
	if u.err != nil {
		first = u.err
	}
	if u.journal != nil {
		if err := u.journal.Sync(); err != nil && first == nil {
			first = fmt.Errorf("store: utxo journal sync: %w", err)
		}
		if err := u.journal.Close(); err != nil && first == nil {
			first = err
		}
		u.journal = nil
	}
	if err := u.table.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
