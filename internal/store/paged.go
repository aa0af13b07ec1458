package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// pagedTable is an on-disk open-addressing hash table of UTXO entries behind
// a bounded write-back page cache: the utxo.Backend whose resident size does
// not grow with the ledger. Slots are fixed-width (flag + outpoint + entry)
// and probe linearly. A delete shifts the rest of its probe run back over
// the hole (backward-shift deletion), so the table never holds anything but
// live and empty slots and its size follows the live count alone: a ledger
// churned by many spends stays as small as its unspent set. The table file
// is derived state — FileUTXO rebuilds it from its
// checkpoint and journal on every open — so it carries no header and is
// never fsynced for durability, only written back under cache pressure.
//
// The poisoned-coinbase side set stays in memory: it holds one hash per
// proven cheater, a population bounded by the number of fraud events, not by
// ledger size.
const (
	pageSize = 4096
	// slotSize is flag (1) + outpoint (36) + entry (49).
	slotSize     = 1 + utxo.OutPointWireSize + utxo.EntryWireSize
	slotsPerPage = uint64(pageSize / slotSize)
	// minSlots is the initial capacity; always a power of two so the probe
	// mask stays a single AND.
	minSlots = 1 << 10
	// defaultCachePages bounds the resident cache at 256 KiB per table.
	defaultCachePages = 64
)

// Slot occupancy flags.
const (
	slotEmpty byte = iota
	slotLive
)

type tablePage struct {
	no    int64
	buf   []byte
	dirty bool
	el    *list.Element
}

type pagedTable struct {
	f        *os.File
	path     string
	nSlots   uint64
	count    uint64 // live entries
	cache    map[int64]*tablePage
	lru      *list.List // front = most recently used
	maxPages int
	poisoned map[crypto.Hash]bool
	stats    utxo.Stats
}

// newPagedTable creates (truncating any previous content) the table file.
// cachePages ≤ 0 takes the default budget.
func newPagedTable(path string, cachePages int) (*pagedTable, error) {
	if cachePages <= 0 {
		cachePages = defaultCachePages
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: table %s: %w", path, err)
	}
	return &pagedTable{
		f:        f,
		path:     path,
		nSlots:   minSlots,
		cache:    make(map[int64]*tablePage),
		lru:      list.New(),
		maxPages: cachePages,
		poisoned: make(map[crypto.Hash]bool),
	}, nil
}

// hashOf derives the probe start from the outpoint. TxIDs are cryptographic
// hashes, so their first eight bytes are already uniform; the index is
// spread by a Fibonacci multiplier so a transaction's outputs don't cluster
// into one probe run.
func hashOf(op types.OutPoint) uint64 {
	return binary.LittleEndian.Uint64(op.TxID[:8]) ^ (uint64(op.Index)+1)*0x9E3779B97F4A7C15
}

// page returns the cached page, faulting it in on a miss. Under a full cache
// the fault takes over the coldest page whole — its buffer, its record and
// its place in the LRU list — after writing it back if dirty, so a table at
// its budget faults without allocating. Pages beyond the file's current size
// read as zeroes, which is exactly an empty slot run: a short read leaves the
// rest of a recycled buffer to be cleared by hand.
func (t *pagedTable) page(no int64) (*tablePage, error) {
	if p, ok := t.cache[no]; ok {
		t.stats.CacheHits++
		t.lru.MoveToFront(p.el)
		return p, nil
	}
	t.stats.CacheMisses++
	var p *tablePage
	if len(t.cache) >= t.maxPages {
		p = t.lru.Back().Value.(*tablePage)
		if p.dirty {
			if err := t.writePage(p); err != nil {
				return nil, err
			}
		}
		delete(t.cache, p.no)
		t.lru.MoveToFront(p.el)
	} else {
		p = &tablePage{buf: make([]byte, pageSize)}
		p.el = t.lru.PushFront(p)
	}
	n, err := t.f.ReadAt(p.buf, no*pageSize)
	if err != nil && err != io.EOF {
		// The buffer holds neither page now; drop the record with it.
		t.lru.Remove(p.el)
		return nil, fmt.Errorf("store: table read page %d: %w", no, err)
	}
	clear(p.buf[n:])
	t.stats.PageReads++
	p.no = no
	t.cache[no] = p
	return p, nil
}

func (t *pagedTable) writePage(p *tablePage) error {
	if _, err := t.f.WriteAt(p.buf, p.no*pageSize); err != nil {
		return fmt.Errorf("store: table write page %d: %w", p.no, err)
	}
	t.stats.PageWrites++
	p.dirty = false
	return nil
}

// flush writes every dirty cached page back.
func (t *pagedTable) flush() error {
	for el := t.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*tablePage)
		if p.dirty {
			if err := t.writePage(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// slot returns the page holding slot i and the offset of the slot within it.
func (t *pagedTable) slot(i uint64) (*tablePage, int, error) {
	p, err := t.page(int64(i / slotsPerPage))
	if err != nil {
		return nil, 0, err
	}
	return p, int(i%slotsPerPage) * slotSize, nil
}

// find locates op's slot. It returns (slot index, true) for a live match, or
// (insertion slot, false) when absent — the empty slot that ends the probe
// run.
func (t *pagedTable) find(op types.OutPoint) (uint64, bool, error) {
	mask := t.nSlots - 1
	i := hashOf(op) & mask
	for probed := uint64(0); probed < t.nSlots; probed++ {
		p, off, err := t.slot(i)
		if err != nil {
			return 0, false, err
		}
		if p.buf[off] == slotEmpty {
			return i, false, nil
		}
		if utxo.GetOutPoint(p.buf[off+1:]) == op {
			return i, true, nil
		}
		i = (i + 1) & mask
	}
	// Table full; growth keeps load ≤ 0.7 so this is unreachable unless the
	// file was corrupted under us.
	return 0, false, fmt.Errorf("store: table probe exhausted %d slots", t.nSlots)
}

func (t *pagedTable) readSlot(i uint64) (types.OutPoint, utxo.Entry, error) {
	p, off, err := t.slot(i)
	if err != nil {
		return types.OutPoint{}, utxo.Entry{}, err
	}
	return utxo.GetOutPoint(p.buf[off+1:]), utxo.GetEntry(p.buf[off+1+utxo.OutPointWireSize:]), nil
}

func (t *pagedTable) writeSlot(i uint64, flag byte, op types.OutPoint, e utxo.Entry) error {
	p, off, err := t.slot(i)
	if err != nil {
		return err
	}
	p.buf[off] = flag
	if flag == slotLive {
		utxo.PutOutPoint(p.buf[off+1:], op)
		utxo.PutEntry(p.buf[off+1+utxo.OutPointWireSize:], e)
	}
	p.dirty = true
	return nil
}

// fail converts an I/O error into a panic. Backend accessors (Get/Put/
// Delete/Range) have no error channel — the in-memory backend cannot fail —
// and a table that can no longer read its own pages cannot serve a ledger;
// crashing is the honest move, exactly like an evicted body that will not
// reload.
func fail(err error) {
	panic(fmt.Sprintf("store: paged table: %v", err))
}

func (t *pagedTable) Get(op types.OutPoint) (utxo.Entry, bool) {
	t.stats.Gets++
	i, ok, err := t.find(op)
	if err != nil {
		fail(err)
	}
	if !ok {
		return utxo.Entry{}, false
	}
	_, e, err := t.readSlot(i)
	if err != nil {
		fail(err)
	}
	return e, true
}

func (t *pagedTable) Put(op types.OutPoint, e utxo.Entry) {
	t.stats.Puts++
	if err := t.put(op, e); err != nil {
		fail(err)
	}
}

func (t *pagedTable) put(op types.OutPoint, e utxo.Entry) error {
	i, ok, err := t.find(op)
	if err != nil {
		return err
	}
	if !ok {
		t.count++
	}
	if err := t.writeSlot(i, slotLive, op, e); err != nil {
		return err
	}
	if t.count*10 >= t.nSlots*7 {
		return t.grow()
	}
	return nil
}

func (t *pagedTable) Delete(op types.OutPoint) {
	t.stats.Deletes++
	if err := t.delete(op); err != nil {
		fail(err)
	}
}

// delete removes op by backward shift: every later entry of the probe run
// whose home slot does not lie cyclically in (hole, j] — whose probe path
// therefore crosses the hole — moves into it, and the slot it left becomes
// the hole, until an empty slot ends the run. Each moved slot is copied out
// before the hole's page is fetched, because under a one-page budget that
// fault recycles the page the copy came from.
func (t *pagedTable) delete(op types.OutPoint) error {
	hole, ok, err := t.find(op)
	if err != nil || !ok {
		return err
	}
	mask := t.nSlots - 1
	var moved [slotSize]byte
	for j := (hole + 1) & mask; ; j = (j + 1) & mask {
		p, off, err := t.slot(j)
		if err != nil {
			return err
		}
		if p.buf[off] == slotEmpty {
			break
		}
		home := hashOf(utxo.GetOutPoint(p.buf[off+1:])) & mask
		if (j-home)&mask < (j-hole)&mask {
			continue // home in (hole, j]: the hole is not on its path
		}
		copy(moved[:], p.buf[off:off+slotSize])
		hp, hoff, err := t.slot(hole)
		if err != nil {
			return err
		}
		copy(hp.buf[hoff:], moved[:])
		hp.dirty = true
		hole = j
	}
	if err := t.writeSlot(hole, slotEmpty, types.OutPoint{}, utxo.Entry{}); err != nil {
		return err
	}
	t.count--
	return nil
}

func (t *pagedTable) Len() int { return int(t.count) }

// Range iterates live slots in slot order — deterministic for a given
// operation history, unlike a map range, but still unspecified to callers
// (it reshuffles on growth), so consumers sort just as they must for the
// in-memory backend. Callers must not write during iteration: a delete
// shifts later entries back across the cursor.
func (t *pagedTable) Range(fn func(op types.OutPoint, e utxo.Entry) bool) {
	for i := uint64(0); i < t.nSlots; i++ {
		p, off, err := t.slot(i)
		if err != nil {
			fail(err)
		}
		if p.buf[off] != slotLive {
			continue
		}
		op := utxo.GetOutPoint(p.buf[off+1:])
		e := utxo.GetEntry(p.buf[off+1+utxo.OutPointWireSize:])
		if !fn(op, e) {
			return
		}
	}
}

func (t *pagedTable) Poisoned(id crypto.Hash) bool { return t.poisoned[id] }

func (t *pagedTable) SetPoisoned(id crypto.Hash, on bool) {
	if on {
		t.poisoned[id] = true
	} else {
		delete(t.poisoned, id)
	}
}

// Snapshot materializes an isolated in-memory copy. Snapshots exist to
// stage branch validation, which no production path does against a file
// backend today; the O(n) copy keeps the two-sided isolation contract exact
// rather than complicating the table with copy-on-write overlays. The copy
// loads as one batch: the memory table keeps raw writes in one open edit
// until something freezes it, so each trie node is allocated once however
// many of the entries below land in it.
func (t *pagedTable) Snapshot() utxo.Backend {
	c := utxo.NewMemBackend()
	t.Range(func(op types.OutPoint, e utxo.Entry) bool {
		c.Put(op, e)
		return true
	})
	for id := range t.poisoned {
		c.SetPoisoned(id, true)
	}
	return c
}

// Reset drops every entry and poison mark, shrinking the table back to its
// initial capacity. Cumulative counters survive, like the in-memory backend.
func (t *pagedTable) Reset() error {
	if err := t.f.Truncate(0); err != nil {
		return fmt.Errorf("store: table reset: %w", err)
	}
	t.cache = make(map[int64]*tablePage)
	t.lru.Init()
	t.nSlots = minSlots
	t.count = 0
	t.poisoned = make(map[crypto.Hash]bool)
	return nil
}

// Sync writes dirty pages back. The table is derived state, so no fsync:
// its durability comes from the journal and checkpoint that rebuild it.
func (t *pagedTable) Sync() error { return t.flush() }

func (t *pagedTable) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.flush()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	t.f = nil
	return err
}

func (t *pagedTable) Stats() utxo.Stats { return t.stats }

// grow rebuilds the table at double capacity. The old file is scanned
// sequentially with a scratch page (after flushing the cache), entries
// re-probe into a fresh table file, and the new file is renamed over the old. Page-transfer counters keep accumulating; logical
// Get/Put counters do not (growth is not a ledger operation).
func (t *pagedTable) grow() error {
	if err := t.flush(); err != nil {
		return err
	}
	tmp := t.path + ".grow"
	nt, err := newPagedTable(tmp, t.maxPages)
	if err != nil {
		return err
	}
	nt.nSlots = t.nSlots * 2
	scratch := make([]byte, pageSize)
	oldPages := int64((t.nSlots + slotsPerPage - 1) / slotsPerPage)
	for no := int64(0); no < oldPages; no++ {
		if _, err := t.f.ReadAt(scratch, no*pageSize); err != nil && err != io.EOF {
			nt.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: grow read page %d: %w", no, err)
		}
		t.stats.PageReads++
		base := uint64(no) * slotsPerPage
		for s := uint64(0); s < slotsPerPage; s++ {
			idx := base + s
			if idx >= t.nSlots {
				break
			}
			off := int(s) * slotSize
			if scratch[off] != slotLive {
				continue
			}
			op := utxo.GetOutPoint(scratch[off+1:])
			e := utxo.GetEntry(scratch[off+1+utxo.OutPointWireSize:])
			i, _, err := nt.find(op)
			if err == nil {
				err = nt.writeSlot(i, slotLive, op, e)
			}
			if err != nil {
				nt.Close()
				os.Remove(tmp)
				return err
			}
			nt.count++
		}
		// Zero the scratch for short tail reads of the next page.
		for i := range scratch {
			scratch[i] = 0
		}
	}
	if err := nt.flush(); err != nil {
		nt.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, t.path); err != nil {
		nt.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: grow swap: %w", err)
	}
	t.f.Close()
	t.f = nt.f
	t.nSlots = nt.nSlots
	t.cache = nt.cache
	t.lru = nt.lru
	t.stats.PageReads += nt.stats.PageReads
	t.stats.PageWrites += nt.stats.PageWrites
	t.stats.CacheHits += nt.stats.CacheHits
	t.stats.CacheMisses += nt.stats.CacheMisses
	return nil
}
